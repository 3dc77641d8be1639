#!/usr/bin/env python3
"""Print the net-LOC line of a CHANGES.md entry, from git diff --numstat.

Usage:
    loc_delta.py BASE_REV            # BASE_REV against the working tree
    loc_delta.py --numstat FILE      # numstat text read from FILE

With BASE_REV it runs `git diff --numstat --no-renames BASE_REV`, which
covers tracked and staged files: stage new files (`git add -A`) first.
Each line of numstat text is `ADDED<TAB>REMOVED<TAB>PATH`; a binary file
(`-` counts) adds nothing.  Paths are grouped as

    src/ptest    split per module (src/ptest/<module>/...; files directly
                 under src/ptest count as `top`)
    tests, bench, examples, perfbench
    docs         any other *.md file
    other        everything else (scripts, CMake, CI); printed only when
                 touched

and the line gives added/removed/net for each, for example

    src/ptest +10/-40 = -30 (core +10/-20 = -10, pfa +0/-20 = -20);
    tests +5/-0 = +5; bench +0/-0 = 0; ...

(printed as one line).  Exit 0 on success, 2 on a malformed numstat line
or a failing git command.
"""

import argparse
import subprocess
import sys

GROUPS = ("src/ptest", "tests", "bench", "examples", "perfbench", "docs")


def classify(path):
    """(group, module) for one path; module is None outside src/ptest."""
    parts = path.split("/")
    if parts[:2] == ["src", "ptest"]:
        return "src/ptest", parts[2] if len(parts) > 3 else "top"
    if parts[0] in GROUPS:
        return parts[0], None
    if path.endswith(".md"):
        return "docs", None
    return "other", None


def tally(numstat):
    """Maps each group, and each (src/ptest, module), to [added, removed]."""
    totals = {group: [0, 0] for group in GROUPS}
    for number, line in enumerate(numstat.splitlines(), 1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValueError(f"line {number}: expected 3 tab-separated "
                             f"fields: {line!r}")
        added, removed, path = fields
        if (added, removed) == ("-", "-"):
            continue  # binary file
        if not (added.isdigit() and removed.isdigit()):
            raise ValueError(f"line {number}: counts are not integers: "
                             f"{line!r}")
        group, module = classify(path)
        for key in (group, (group, module)) if module else (group,):
            counts = totals.setdefault(key, [0, 0])
            counts[0] += int(added)
            counts[1] += int(removed)
    return totals


def span(added, removed):
    net = added - removed
    return f"+{added}/-{removed} = {'+' if net > 0 else ''}{net}"


def render(totals):
    modules = sorted(key[1] for key in totals if isinstance(key, tuple))
    parts = []
    for group in GROUPS + ("other",):
        if group not in totals:
            continue
        text = f"{group} {span(*totals[group])}"
        if group == "src/ptest" and modules:
            text += " (" + ", ".join(
                f"{module} {span(*totals[(group, module)])}"
                for module in modules) + ")"
        parts.append(text)
    return "; ".join(parts)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("base_rev", nargs="?", help="git revision to diff")
    source.add_argument("--numstat", help="read numstat text from a file")
    args = parser.parse_args(argv)
    try:
        if args.numstat:
            with open(args.numstat, encoding="utf-8") as stream:
                numstat = stream.read()
        else:
            numstat = subprocess.run(
                ["git", "diff", "--numstat", "--no-renames", args.base_rev],
                check=True, capture_output=True, text=True).stdout
        print(render(tally(numstat)))
    except (OSError, ValueError, subprocess.CalledProcessError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
