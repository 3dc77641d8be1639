#!/usr/bin/env python3
"""Campaign benchmark entry point.

Builds perfbench/campaign_bench (and the ptest library it links) from
source, runs one workload, checks every campaign digest against
perfbench/golden.json, and prints the metrics by name and unit followed by
one JSON result line:

    python3 perfbench/run.py --workload short-crash --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
Exit status is 0 only when every check passed.  Run from the repository
root; the build goes to $CARGO_TARGET_DIR, or .bench_build when unset.

    python3 perfbench/run.py --update-golden

re-records golden.json for seeds 0..63 after an intended behaviour change.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
WORKLOADS = ["short-crash", "long-hang", "detector-heavy", "parallel-short"]
# parallel-short runs short-crash's campaigns, so it adds no digests.
GOLDEN_WORKLOADS = ["short-crash", "long-hang", "detector-heavy"]
GOLDEN_SEEDS = range(64)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds campaign_bench; returns its path."""
    if not (ROOT / "src" / "ptest" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"ptest sources not found under {ROOT / 'src'}")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "campaign_bench", "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return build_dir / "campaign_bench"


def run_bench(binary, args):
    """Runs campaign_bench; returns its parsed last line, or None on failure."""
    proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"campaign_bench exited {proc.returncode} without a result")
        return None
    result = json.loads(lines[-1])
    if proc.returncode != 0 and result.get("failed", 0) == 0:
        log(f"campaign_bench exited {proc.returncode}")
        return None
    return result


def golden_key(campaign):
    """Scenario, --seed, and campaign shape: `campaigns` campaigns of
    `budget` sessions, whose digests campaign_bench sums."""
    return (f"{campaign['scenario']}:{campaign['seed']}:"
            f"{campaign['campaigns']}x{campaign['budget']}")


def digest(campaign):
    return {k: campaign[k] for k in
            ("sessions", "ticks", "detections", "oracle", "signatures")}


def check_golden(result):
    """Counts campaigns whose digest differs from the recorded one."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    mismatches = 0
    for campaign in result["campaigns"]:
        expected = golden.get(golden_key(campaign))
        if expected is None:
            log(f"no golden digest for {golden_key(campaign)}")
        elif expected != digest(campaign):
            log(f"golden mismatch for {golden_key(campaign)}: "
                f"expected {expected}, got {digest(campaign)}")
            mismatches += 1
    return mismatches


def update_golden(binary):
    golden = {}
    for seed in GOLDEN_SEEDS:
        for workload in GOLDEN_WORKLOADS:
            result = run_bench(binary, ["--workload", workload,
                                         "--seed", str(seed), "--digest"])
            if result is None:
                return 1
            for campaign in result["campaigns"]:
                golden[golden_key(campaign)] = digest(campaign)
    lines = [f"{json.dumps(key)}: {json.dumps(golden[key], sort_keys=True)}"
             for key in sorted(golden)]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    log(f"wrote {len(golden)} digests to {GOLDEN}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args()
    if not args.update_golden and args.workload is None:
        parser.error("--workload is required")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as error:
        log(f"build failed: {error}")
        return 2
    if args.update_golden:
        return update_golden(binary)

    result = run_bench(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    if result is None:
        return 1
    failed = result["failed"] + check_golden(result)
    for error in result["errors"]:
        log(error)
    for name, metric in result["metrics"].items():
        print(f"{args.workload:>15} {name:<32} {metric['value']:>16.6g} "
              f"{metric['unit']}")
    print(json.dumps({"correct": failed == 0,
                      "attempted": result["attempted"],
                      "failed": failed,
                      "metrics": result["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
