#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

One workload, as the contract in BENCHMARK.json runs it:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is the result object (`correct`,
`attempted`, `failed`, `metrics`); the lines before it are the readable
report, including the independent verdict check of every problem.

Every workload, untraced and traced, with the tracing overhead:

    python3 perfbench/run.py --report [--seed <n>] [--seconds <s>]

Run from the repository root.  The build goes to $CARGO_TARGET_DIR
(default `.bench_build`), scratch files to `.bench_work`.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["cold_suite", "warm_restart", "numeric_cold", "serve"]


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    manifest = ROOT / "perfbench" / "Cargo.toml"
    command = ["cargo", "build", "--offline", "--release", "--quiet", "--manifest-path", str(manifest)]
    if subprocess.run(command, env=env, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return target / "release" / "perfbench"


def pin_to_one_cpu():
    """Pins this process, and so the benchmark it starts, to one CPU.

    The engine runs serially, and on a small shared host migrations between
    CPUs roughly double the run-to-run spread of sub-second verdict times.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (report lines, result object)."""
    command = [
        str(binary),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--work", str(ROOT / ".bench_work"),
    ]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} failed with exit code {done.returncode}")
    return lines[:-1], json.loads(lines[-1])


def report(binary, seed, seconds):
    for workload in WORKLOADS:
        walls = {}
        for trace in (0, 1):
            lines, result = run_workload(binary, workload, seed, seconds, trace)
            print("\n".join(lines))
            print(f"  correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
            metrics = result["metrics"]
            walls[trace] = metrics["bench.traced_wall_s" if trace else "wall_s"]["value"]
        overhead = walls[1] - walls[0]
        print(f"  tracing overhead on {workload}: {overhead:+.6f} s per pass "
              f"({overhead / walls[0]:+.2%} of wall_s)\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--report", action="store_true")
    args = parser.parse_args()
    if not args.report and args.workload is None:
        parser.error("--workload or --report is required")
    binary = build()
    pin_to_one_cpu()
    if args.report:
        report(binary, args.seed, args.seconds)
        return
    lines, result = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result, separators=(",", ":")))


if __name__ == "__main__":
    main()
