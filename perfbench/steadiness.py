#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, runs interleaved.

    python3 perfbench/steadiness.py --runs 10 [--first-seed 1] \
        [--workloads serve_curve] [--json FILE]

For seed i of --runs consecutive seeds it runs every workload once
(untraced, BENCHMARK.json's run_seconds), so a slow phase of the host
hits every workload alike.  Per workload and metric it prints the
median, the quartiles (statistics.quantiles(n=4)), the spread
(Q3 - Q1) / median against the metric's bound, and the per-op wall
p50 each run reported; --json also keeps every op's wall time, which
shows the host's speed modes.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--json", help="also write all values here")
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    values = {w: {m["name"]: [] for m in bench["end_to_end"]}
              for w in workloads}
    op_p50 = {w: [] for w in workloads}
    op_ms = {w: [] for w in workloads}
    failed = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in workloads:
            proc = subprocess.run(
                [*bench["command"], "--workload", w, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            p50 = re.search(r"bench\.op_p50_ms ([0-9.]+)", proc.stdout)
            op_p50[w].append(float(p50.group(1)) if p50 else 0.0)
            log = os.path.join(ROOT, ".bench_build", "perfbench-out", w,
                               "op-times.txt")
            with open(log) as f:
                op_ms[w].append([round(float(line.split()[1]), 1)
                                 for line in f])
            print(f"seed {seed} {w}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
                + f", op p50 {op_p50[w][-1]:.1f} ms, failed {result['failed']}",
                flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    print(f"\n{'workload':16} {'metric':14} {'median':>10} {'Q1':>10} "
          f"{'Q3':>10} {'spread':>7} {'bound':>6}")
    for w in workloads:
        for name, vals in values[w].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary.setdefault(w, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[name], "values": vals}
            print(f"{w:16} {name:14} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{spread:7.3f} {bounds[name]:6.2f}")
        summary[w]["op_p50_ms"] = op_p50[w]
        summary[w]["op_ms"] = op_ms[w]
    print(f"failed ops: {failed}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"runs": args.runs, "first_seed": args.first_seed,
                       "run_seconds": bench["run_seconds"],
                       "failed": failed, "workloads": summary}, f, indent=1)
            f.write("\n")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
