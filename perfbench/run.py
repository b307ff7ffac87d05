#!/usr/bin/env python3
"""Build and run the prb benchmark.

    python3 perfbench/run.py --workload closed-modp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                 # every workload, end-to-end metrics
    python3 perfbench/run.py --self-check    # the exact-count self-check test

Run from the repository root. The benchmark is a Cargo package of its own
(perfbench/Cargo.toml) built with `--release --offline` into
$CARGO_TARGET_DIR (default perfbench/target). Each workload runs in its own
single-threaded process. The last line of standard output is the run's JSON
result; build output goes to standard error. The exit code is non-zero when
the build fails, a correctness check fails, or a run exceeds its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ["closed-modp", "open-sim", "durable-faults"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def target_dir():
    # Cargo resolves a relative CARGO_TARGET_DIR against its working
    # directory, which is the repository root here.
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", os.path.join("perfbench", "target")))


def cargo(*args, timeout):
    """Runs cargo on the benchmark package with its output on stderr."""
    cmd = ["cargo", *args, "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=timeout).returncode


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns its exit code."""
    work = os.path.join(target_dir(), "perfbench-work", str(os.getpid()))
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--work-dir", work,
        "--out-dir", os.path.join(target_dir(), "perfbench-out"),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
        return proc.returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-check", action="store_true",
                   help="run the benchmark's own tests, including the exact-count self-check")
    args = p.parse_args()

    if args.self_check:
        try:
            return cargo("test", timeout=BUILD_TIMEOUT_S + 600)
        except subprocess.TimeoutExpired:
            print("perfbench: self-check timed out", file=sys.stderr)
            return 124
    try:
        if cargo("build", timeout=BUILD_TIMEOUT_S) != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 124
    binary = os.path.join(target_dir(), "release", "perfbench")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    worst = 0
    for w in workloads:
        worst = max(worst, run_one(binary, w, args.seed, args.seconds, args.trace))
    return worst


if __name__ == "__main__":
    sys.exit(main())
