#!/usr/bin/env python3
"""Append one benchmark run to the repo's performance trajectory.

The bench binaries export machine-readable results when ETSQP_BENCH_JSON
names a file (one JSON object per line — see bench/bench_util.h). This
script runs a bench binary with that export enabled, stamps the collected
lines with the git revision, a label, and the scale factor, and appends the
run as a single JSON line to the trajectory file (BENCH_baseline.json at
the repo root by default). Each trajectory line is one run; diffing runs
across revisions is a `python -m json.tool` + jq exercise.

With --sqlbench WORKLOAD it runs the SQL-to-rows benchmark instead
(`python3 sqlbench/run.py --workload W --seed N --seconds S --trace T`),
takes the result JSON from the last line of its stdout, and appends it
stamped with the revision, seed and label.

Examples:
    tools/bench_trajectory.py build/bench/bench_fig12_micro --scale 0.05
    tools/bench_trajectory.py build/bench/bench_fig10_queries \
        --label pre-registry --out BENCH_baseline.json
    tools/bench_trajectory.py --sqlbench scan_agg --seed 1 --seconds 10

Stdlib only: no third-party dependencies.
"""

import argparse
import datetime
import json
import os
import pathlib
import subprocess
import sys
import tempfile


def git_rev(repo_root):
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=7"],
            cwd=repo_root, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (subprocess.CalledProcessError, FileNotFoundError):
        return "unknown"


def run_bench(binary, scale, json_path, timeout):
    env = dict(os.environ)
    env["ETSQP_BENCH_JSON"] = json_path
    if scale is not None:
        env["ETSQP_BENCH_SCALE"] = str(scale)
    proc = subprocess.run([binary], env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench exited with {proc.returncode}")
    return proc.stdout


def run_sqlbench(repo_root, workload, seed, seconds, trace, timeout):
    cmd = [sys.executable, "sqlbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=repo_root, capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"sqlbench exited with {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise SystemExit(f"bad result line from sqlbench: {e}: {lines[-1]}")


def main():
    parser = argparse.ArgumentParser(
        description="Run a bench binary (or sqlbench) and append its JSON "
                    "results to the performance trajectory file.")
    parser.add_argument("binary", nargs="?",
                        help="bench executable to run (omit with --sqlbench)")
    parser.add_argument("--sqlbench", metavar="WORKLOAD", default=None,
                        help="run sqlbench/run.py on this workload instead")
    parser.add_argument("--seed", type=int, default=1,
                        help="sqlbench --seed (default: 1)")
    parser.add_argument("--seconds", type=int, default=10,
                        help="sqlbench --seconds (default: 10)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="sqlbench --trace (default: 0)")
    parser.add_argument("--scale", type=float, default=None,
                        help="ETSQP_BENCH_SCALE for the run (default: unset)")
    parser.add_argument("--label", default="",
                        help="free-form tag stored with the run")
    parser.add_argument("--out", default=None,
                        help="trajectory file to append to "
                             "(default: <repo root>/BENCH_baseline.json)")
    parser.add_argument("--timeout", type=float, default=1800,
                        help="bench run timeout in seconds")
    args = parser.parse_args()
    if (args.binary is None) == (args.sqlbench is None):
        parser.error("give either a bench binary or --sqlbench WORKLOAD")

    repo_root = pathlib.Path(__file__).resolve().parent.parent
    out_path = pathlib.Path(args.out) if args.out else (
        repo_root / "BENCH_baseline.json")
    date = (datetime.datetime.now(datetime.timezone.utc)
            .strftime("%Y-%m-%dT%H:%M:%SZ"))

    if args.sqlbench is not None:
        result = run_sqlbench(repo_root, args.sqlbench, args.seed,
                              args.seconds, args.trace, args.timeout)
        record = {
            "bench": "sqlbench/" + args.sqlbench,
            "label": args.label,
            "git_rev": git_rev(repo_root),
            "date": date,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "result": result,
        }
        with open(out_path, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"appended {record['bench']} seed {args.seed} "
              f"(rev {record['git_rev']}) to {out_path}")
        return

    fd, tmp_json = tempfile.mkstemp(prefix="etsqp_bench_", suffix=".jsonl")
    os.close(fd)
    try:
        run_bench(args.binary, args.scale, tmp_json, args.timeout)
        results = []
        with open(tmp_json) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    results.append(json.loads(line))
                except json.JSONDecodeError as e:
                    raise SystemExit(f"bad JSON line from bench: {e}: {line}")
    finally:
        os.unlink(tmp_json)

    if not results:
        raise SystemExit(
            "bench produced no JSON output — does it call bench::ExportJson "
            "or export its own ETSQP_BENCH_JSON lines?")

    record = {
        "bench": os.path.basename(args.binary),
        "label": args.label,
        "git_rev": git_rev(repo_root),
        "date": date,
        "scale": args.scale,
        "results": results,
    }
    with open(out_path, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"appended {len(results)} results from {record['bench']} "
          f"(rev {record['git_rev']}) to {out_path}")


if __name__ == "__main__":
    main()
