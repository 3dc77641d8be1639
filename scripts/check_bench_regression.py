#!/usr/bin/env python3
"""Gate deterministic benchmark counters against a committed baseline.

Usage:
    check_bench_regression.py BASELINE CURRENT --counter NAME...
                              [--threshold 0.05]

Both inputs are `bench_all --json` outputs.  Every baseline benchmark
that carries a named counter is gated: the current run must carry the
same benchmark with the same counter, and

    current <= baseline * (1 + threshold)

Higher is worse.  The gated counters (fleet_sessions_total,
fleet_uncovered_transitions, the guided and static sessions-to-first-bug
medians, plan_compiles) are work counts, identical on every healthy
runner for the bench seeds, so a drift is a behaviour change and not
runner noise.  Wall times are never compared: they differ across runner
generations.

Exit 0 when every gated value is present and within the threshold, 1
when one regressed or went missing (a deleted row or counter would
otherwise pass unchecked), 2 on malformed input or when no baseline row
carries any named counter (the gate would check nothing).
"""

import argparse
import json
import sys


def fail_input(message):
    # Exit 2 (not 1) so a broken input is never mistaken for a
    # regression, nor a misconfigured gate for a passing one.
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_counters(path):
    """Maps each benchmark name in `path` to its counters object."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        fail_input(f"cannot read {path}: {error}")
    benchmarks = document.get("benchmarks") if isinstance(document, dict) else None
    if not isinstance(benchmarks, dict):
        fail_input(f"{path} has no 'benchmarks' object")
    counters = {}
    for name, entry in benchmarks.items():
        row = entry.get("counters", {}) if isinstance(entry, dict) else None
        if not isinstance(row, dict):
            fail_input(f"{path}: benchmark {name} has malformed counters")
        counters[name] = row
    return document, counters


def number(path, name, counter, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        fail_input(f"{path}: {name}#{counter} is not a number")
    return float(value)


def main():
    parser = argparse.ArgumentParser(
        description="Gate deterministic benchmark counters of CURRENT "
                    "against BASELINE (both bench_all --json outputs).")
    parser.add_argument("baseline", help="baseline BENCH_results.json")
    parser.add_argument("current", help="current BENCH_results.json")
    parser.add_argument("--counter", action="append", required=True,
                        metavar="NAME",
                        help="gate this counter on every baseline benchmark "
                             "that carries it (repeatable; higher is worse)")
    parser.add_argument("--threshold", type=float, default=0.05,
                        help="allowed relative rise before a counter counts "
                             "as regressed (default: 0.05 = 5%%)")
    args = parser.parse_args()
    if args.threshold < 0:
        parser.error("--threshold must not be negative")

    base_doc, base = load_counters(args.baseline)
    cur_doc, cur = load_counters(args.current)
    print(f"baseline: {args.baseline} (git {base_doc.get('git_sha', '?')})")
    print(f"current:  {args.current} (git {cur_doc.get('git_sha', '?')})")
    print(f"threshold: +{args.threshold:.0%}\n")

    gated = 0
    failures = 0
    for counter in args.counter:
        for name in sorted(base):
            if counter not in base[name]:
                continue
            gated += 1
            label = f"{name}#{counter}"
            base_value = number(args.baseline, name, counter,
                                base[name][counter])
            if counter not in cur.get(name, {}):
                what = "counter" if name in cur else "benchmark"
                print(f"  {label}: {base_value:g} -> MISSING ({what} gone)")
                failures += 1
                continue
            cur_value = number(args.current, name, counter, cur[name][counter])
            regressed = cur_value > base_value * (1.0 + args.threshold)
            failures += regressed
            print(f"  {label}: {base_value:g} -> {cur_value:g}"
                  f"{'  REGRESSED' if regressed else ''}")

    if gated == 0:
        fail_input(f"no benchmark in {args.baseline} carries any of "
                   f"{', '.join(args.counter)}")
    print(f"\n{gated} gated value(s), {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
