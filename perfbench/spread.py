#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of its values
as a share of their median, next to the metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --workload churn --runs 10

Seeds run from 1; each run measures BENCHMARK.json's run_seconds.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    values = {}
    for seed in range(1, args.runs + 1):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: incorrect result {res}")
        row = {k: v["value"] for k, v in res["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in sorted(row.items())), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'metric':16} {'median':>12} {'iqr/median':>10} {'bound':>6}")
    for k in sorted(values):
        q1, _, q3 = statistics.quantiles(values[k], n=4)
        med = statistics.median(values[k])
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread < bounds[k] / 3 else ("  > bound/3" if spread < bounds[k] else "  > BOUND")
        print(f"{k:16} {med:12.6g} {spread:10.3f} {bounds[k]:6.2f}{flag}")


if __name__ == "__main__":
    main()
