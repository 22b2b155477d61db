#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workload cold-python --seeds 1 10 [--seconds 20]

Runs run.py once per seed (one after another, never in parallel) and
prints, per end-to-end metric, the median of the runs and the distance
between their first and third quartiles as a share of that median, next
to the metric's bound from BENCHMARK.json. Every run must be correct.
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
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs=2, default=(1, 10),
                    metavar=("FIRST", "LAST"))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    values = {m["name"]: [] for m in spec["end_to_end"]}
    ok = True
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not res.get("correct"):
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            ok = False
            continue
        row = [f"failed={res['failed']}/{res['attempted']}"]
        for name, m in res["metrics"].items():
            values[name].append(m["value"])
            row.append(f"{name}={m['value']:.6g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)

    print(f"{'metric':<18} {'median':>12} {'iqr/median':>10} {'bound':>6}")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        if len(v) < 2:
            continue
        q1, med, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / med if med else float("inf")
        print(f"{m['name']:<18} {med:>12.6g} {share:>10.4f} {m['bound']:>6}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
