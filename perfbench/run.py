#!/usr/bin/env python3
"""End-to-end CoStar benchmark: build the benchmark program from source, run one
workload for one seed, check the result line, print it last.

    python3 perfbench/run.py --workload cold-python --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The benchmark program and the library sources
next to it are built with CMake into $CARGO_TARGET_DIR (default
.bench_build) on the first run; later runs rebuild only what changed.
With --trace 0 the last line of stdout carries every end-to-end metric of
BENCHMARK.json, with --trace 1 every per-layer metric. The exit code is 0
only when the run was correct (no failed operation, every output equal to
its reference).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark program; build output goes to stderr."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build directory configured for another source tree (a moved or
        # copied checkout) cannot be reused.
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(build_dir)
    if not os.path.exists(cache):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "costar_perfbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "costar_perfbench")


def check_line(line, trace, spec):
    """Problems with the result line against BENCHMARK.json (empty if none)."""
    try:
        res = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
        return problems
    want = spec["per_layer" if trace else "end_to_end"]
    want_units = {m["name"]: m["unit"] for m in want}
    got = res["metrics"]
    if set(got) != set(want_units):
        problems.append(f"metric names differ: missing "
                        f"{sorted(set(want_units) - set(got))}, extra "
                        f"{sorted(set(got) - set(want_units))}")
    for name, m in got.items():
        if name in want_units and m.get("unit") != want_units[name]:
            problems.append(f"{name}: unit {m.get('unit')} != "
                            f"{want_units[name]}")
    return problems


def main():
    with open(os.path.join(HERE, "config.json"), encoding="utf-8") as f:
        config = json.load(f)["workloads"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(config))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no CoStar sources at {os.path.join(ROOT, 'src')}; "
            "run from the root of a full checkout")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)

    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    try:
        exe = build(os.path.join(out_dir, "perfbench"))
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2

    # Snapshots and span logs of this run live in a scratch directory
    # inside the build directory, removed again when the run ends.
    work = os.path.join(out_dir, "perfbench-work",
                        f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = config[args.workload]
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--work", work]
    if "rate_rps" in wl:
        cmd += ["--rate", str(wl["rate_rps"]),
                "--deadline-ms", str(wl["deadline_ms"]),
                "--p99-limit-ms", str(wl["p99_limit_ms"])]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"costar_perfbench exceeded {RUN_TIMEOUT_S} s")
        return 3
    finally:
        if not args.trace:
            shutil.rmtree(work, ignore_errors=True)
        else:
            for name in os.listdir(work):
                if name.endswith(".snap"):
                    os.remove(os.path.join(work, name))

    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"costar_perfbench printed no result (exit {proc.returncode})")
        return proc.returncode or 3
    problems = check_line(lines[-1], args.trace, spec)
    if problems:
        for p in problems:
            log(p)
        return 3
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
