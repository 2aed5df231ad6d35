#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics across seeds.

    python3 perfbench/spread.py --workload sparse-churn [--runs 10] [--trace 0]

Runs the benchmark once per seed (1..runs), then prints for every metric its
median, quartiles and spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound from BENCHMARK.json and a third of it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in benchmark["end_to_end"]}

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(benchmark["run_seconds"]),
             "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not result["correct"]:
            sys.exit("seed %d: run failed (exit %d)" % (seed, out.returncode))
        print("seed %d ok" % seed, file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print("%-40s %14s %14s %14s %8s %6s %6s" %
          ("metric", "q1", "median", "q3", "spread", "bound", "b/3"))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-40s %14.6g %14.6g %14.6g %8.4f %6s %6s" %
              (name, q1, med, q3, spread, bound if bound is not None else "-",
               "%.4f" % (bound / 3) if bound is not None else "-"))


if __name__ == "__main__":
    main()
