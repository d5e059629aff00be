#!/usr/bin/env python3
"""Seed-to-seed spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload NAME --seeds 1,2,3,4,5 [--seconds S]

Runs `perfbench/run.py` once per seed with `--trace 0` (for
BENCHMARK.json's `run_seconds` unless `--seconds` is given) and prints, per
end-to-end metric, the median and the distance between the first and
third quartiles (`statistics.quantiles(values, n=4)`) as a share of the
median, next to the metric's bound. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds.split(","):
        out = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", seed,
                                "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: run not correct: {result}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
    print(f"{'metric':<24} {'median':>12} {'spread':>8} {'bound':>6} {'bound/3':>8}")
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / statistics.median(v)
        flag = "ok" if spread < m["bound"] / 3 else ("within" if spread <= m["bound"] else "WIDE")
        print(f"{m['name']:<24} {statistics.median(v):>12.6g} {spread:>8.4f} "
              f"{m['bound']:>6} {m['bound'] / 3:>8.4f} {flag}")


if __name__ == "__main__":
    main()
