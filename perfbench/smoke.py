#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py [--seconds 3]

Runs every workload of BENCHMARK.json briefly, untraced and traced,
prints every metric with its unit, and checks that:
  - each run exits 0 with a correct result and no failed operation;
  - the metric names and units are exactly those of BENCHMARK.json;
  - the traced run's layer self times cover >= 95% of the pass on the
    single-thread workloads, core is >= 95% of cold-python, and the warm
    verilint cache adds no DFA states;
  - in a directory holding only BENCHMARK.json and perfbench/, run.py
    exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(root, workload, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=3)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "config.json"), encoding="utf-8") as f:
        config = json.load(f)["workloads"]

    errors = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(config):
        errors.append(f"workloads {names} != config.json {sorted(config)}")

    for workload in names:
        for trace in (0, 1):
            proc = run(ROOT, workload, args.seconds, trace)
            tag = f"{workload} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                errors.append(f"{tag}: exit {proc.returncode}\n"
                              + proc.stderr[-2000:])
                continue
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"] != 0:
                errors.append(f"{tag}: correct={res['correct']} "
                              f"failed={res['failed']}")
            want = {m["name"]: m["unit"]
                    for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                errors.append(f"{tag}: metrics/units differ from "
                              "BENCHMARK.json")
            m = {k: v["value"] for k, v in res["metrics"].items()}
            print(f"{tag}: attempted={res['attempted']} failed="
                  f"{res['failed']}", flush=True)
            for k, v in res["metrics"].items():
                print(f"  {k:<30} {v['value']:>14.6g} {v['unit']}")
            if trace and workload != "service-skewed":
                if m["trace.coverage"] < 0.95:
                    errors.append(f"{tag}: layer coverage "
                                  f"{m['trace.coverage']:.3f} < 0.95")
            if trace and workload == "cold-python" and m["core.share"] < 0.95:
                errors.append(f"{tag}: core share {m['core.share']:.3f}")
            if trace and workload == "warm-verilint" and \
                    m["core.states_added"] != 0:
                errors.append(f"{tag}: warm cache added states")

    # A directory with only the benchmark's own files must be refused.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, names[0], args.seconds, 0)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append("bare directory: run.py did not refuse")
    shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print("FAIL:", e)
    print("smoke: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
