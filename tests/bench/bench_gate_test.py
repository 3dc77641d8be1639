#!/usr/bin/env python3
"""Exit-code contract of scripts/check_bench_regression.py, CI's blocking
bench counter gate, over the JSON fixtures next to this file.

Run directly (CTest registers it as bench_gate):
    python3 tests/bench/bench_gate_test.py
"""

import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
GATE = HERE.parents[1] / "scripts" / "check_bench_regression.py"
COUNTERS = ("fleet_sessions_total", "fleet_uncovered_transitions",
            "guided_sessions_to_first_bug_median", "plan_compiles")


def gate(current, counters=COUNTERS):
    args = [sys.executable, str(GATE), str(HERE / "gate_baseline.json"),
            str(HERE / current)]
    for name in counters:
        args += ["--counter", name]
    return subprocess.run(args, capture_output=True).returncode


class BenchGateTest(unittest.TestCase):
    def test_baseline_against_itself_passes(self):
        self.assertEqual(gate("gate_baseline.json"), 0)

    def test_wall_times_ungated_counters_and_gains_pass(self):
        # 10x wall times, halved ungated counters, one gated counter down
        # and one up 4% (inside the default 5% threshold).
        self.assertEqual(gate("gate_noise.json"), 0)

    def test_six_percent_drift_on_gated_counter_fails(self):
        self.assertEqual(gate("gate_drift.json"), 1)

    def test_removed_gated_row_fails(self):
        self.assertEqual(gate("gate_missing_row.json"), 1)

    def test_removed_gated_counter_fails(self):
        self.assertEqual(gate("gate_missing_counter.json"), 1)

    def test_malformed_json_exits_2(self):
        self.assertEqual(gate("gate_malformed.json"), 2)

    def test_counter_no_baseline_row_carries_exits_2(self):
        self.assertEqual(gate("gate_baseline.json", ["no_such_counter"]), 2)


if __name__ == "__main__":
    unittest.main()
