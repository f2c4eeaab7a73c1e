#!/usr/bin/env python3
"""Host-time benchmark of hccsim: build, run one workload, print results.

    python3 perfbench/run.py --workload serve_curve --seed 42 \
        --seconds 55 --trace 0

Run from the repository root.  Each run configures and, when sources
changed, builds the simulator and the hccbench runner (Release) under
.bench_build/perfbench.  Untraced runs (--trace 0) also start
SETUP_REPEATS extra hccbench processes that stop after their warm-up
op, half before the measuring process and half after it, and report
the median set-up time of all of them.  The last line of standard
output is the JSON result; see perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "hccbench")
SETUP_REPEATS = 4


def build():
    """Configure and bring hccbench up to date (quiet on stdout)."""
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "hccbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def spawn(args):
    """Run hccbench; return (report lines, result dict or None)."""
    spawned = time.monotonic_ns()
    proc = subprocess.run([EXE, *args, "--spawned-ns", str(spawned)],
                          stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        return lines, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return lines, None
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--root", ROOT]
    counts = {"attempted": 0, "failed": 0}
    setups = []

    def setup_runs(n):
        """Start n set-up-only processes; False if one fails."""
        for _ in range(n):
            _, r = spawn(common + ["--setup-only"])
            if r is None:
                print("perfbench: set-up run failed", file=sys.stderr)
                return False
            counts["attempted"] += r["attempted"]
            counts["failed"] += r["failed"]
            setups.append(r["metrics"]["setup_s"]["value"])
        return True

    # Untraced runs sample set-up at both ends of the timed phase, so
    # one slow moment of the host does not set the whole median.
    before = SETUP_REPEATS // 2 if args.trace == 0 else 0
    after = SETUP_REPEATS - before if args.trace == 0 else 0
    if not setup_runs(before):
        return 1
    report, result = spawn(common + ["--seconds", str(args.seconds),
                                     "--trace", str(args.trace)])
    if result is None:
        print("perfbench: run failed", file=sys.stderr)
        return 1
    if not setup_runs(after):
        return 1
    result["attempted"] += counts["attempted"]
    result["failed"] += counts["failed"]
    result["correct"] = result["correct"] and counts["failed"] == 0
    if args.trace == 0:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        report.append(f"  setup_s median of {len(setups)} processes: "
                      + ", ".join(f"{s:.3f}" for s in setups))
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
