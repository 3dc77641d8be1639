#!/usr/bin/env python3
"""Output and exit-code contract of scripts/loc_delta.py over the canned
numstat fixture next to this file (no git repository needed).

Run directly (CTest registers it as loc_delta):
    python3 tests/scripts/loc_delta_test.py
"""

import pathlib
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
SCRIPT = HERE.parents[1] / "scripts" / "loc_delta.py"


def run(numstat_path):
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--numstat", str(numstat_path)],
        capture_output=True, text=True)


def run_text(numstat):
    with tempfile.NamedTemporaryFile("w", suffix=".txt") as stream:
        stream.write(numstat)
        stream.flush()
        return run(stream.name)


class LocDeltaTest(unittest.TestCase):
    def test_fixture_prints_every_group_and_touched_module(self):
        result = run(HERE / "loc_delta_numstat.txt")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertEqual(
            result.stdout,
            "src/ptest +18/-60 = -42 (pattern +0/-56 = -56, "
            "pfa +16/-4 = +12, top +2/-0 = +2); tests +7/-9 = -2; "
            "bench +1/-1 = 0; examples +0/-0 = 0; perfbench +0/-0 = 0; "
            "docs +33/-2 = +31; other +40/-0 = +40\n")

    def test_untouched_other_and_modules_are_left_out(self):
        result = run_text("3\t1\ttests/a.cpp\n")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertEqual(
            result.stdout,
            "src/ptest +0/-0 = 0; tests +3/-1 = +2; bench +0/-0 = 0; "
            "examples +0/-0 = 0; perfbench +0/-0 = 0; docs +0/-0 = 0\n")

    def test_markdown_under_a_code_group_counts_in_that_group(self):
        result = run_text("4\t0\tperfbench/README.md\n")
        self.assertIn("perfbench +4/-0 = +4; docs +0/-0 = 0",
                      result.stdout)

    def test_malformed_line_exits_2(self):
        self.assertEqual(run_text("1 2 src/ptest/pfa/pfa.cpp\n").returncode,
                         2)
        self.assertEqual(run_text("x\t2\tREADME.md\n").returncode, 2)

    def test_missing_file_exits_2(self):
        self.assertEqual(run(HERE / "no_such_numstat.txt").returncode, 2)


if __name__ == "__main__":
    unittest.main()
