#!/usr/bin/env python3
"""Runs each workload repeatedly and prints per-metric median and quartiles.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads online,serve] [--seconds S] [--trace 0|1]

Every run uses a different seed. For each metric the table shows the
median, the first and third quartiles (statistics.quantiles, n=4), the
spread (Q3 - Q1) / median, and the bound BENCHMARK.json fixes for it.
Exits non-zero if a run fails or a spread exceeds its bound. setup_s
is one cold set-up per run, a single sample by design (a second set-up
in the same process would be a warm one), so only its median over many
runs is held to its bound: its spread is printed, marked "median only",
and does not fail the command.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        units = {}
        failed_shares = set()
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", args.trace],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            failed_shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"\n{workload}: {args.runs} runs, failed shares "
              f"{sorted(failed_shares)}")
        print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            mark = ""
            if name == "setup_s":
                mark = "  median only"
            elif bound is not None and spread > bound:
                mark = "  OVER"
                ok = False
            print(f"{name:34} {median:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6}"
                  f"{mark}  {units[name]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
