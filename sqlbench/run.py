#!/usr/bin/env python3
"""Builds the SQL-to-rows benchmark driver and runs one workload.

    python3 sqlbench/run.py --workload scan_agg --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout: the engine sources are ../src next to
this directory. The first call configures and builds into
.bench_build/sqlbench (later calls only check the build is up to date).
Build output goes to stderr; the driver's stdout is passed through, and
its last line is the result as one JSON object. Exits non-zero, without a
result, when the sources or the build are missing or a run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "sqlbench")
WORKLOADS = ["scan_agg", "merge_join", "iot_serving", "cold_scan"]
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("sqlbench: no engine sources at %s" % os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "sqlbench"],
        stdout=sys.stderr, check=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("sqlbench: build failed: %s" % e)
    out = os.path.join(BUILD, "run")
    os.makedirs(out, exist_ok=True)
    cmd = [os.path.join(BUILD, "sqlbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("sqlbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
