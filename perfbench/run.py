#!/usr/bin/env python3
"""Build and run the Apollo wall-clock application benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload clover-amr-tune --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which compiles the Apollo
libraries from ../src) into .bench_build/perfbench; later runs reuse it. Build
output goes to stderr. The benchmark binary prints a stamp line and, as the
last line of stdout, one JSON object with the result. With --trace 1 the
benchmark's spans and the program's telemetry events are also written to
.bench_build/perfbench-trace-<workload>-<seed>.json.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "apollo_perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build the benchmark; returns False on failure."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 4)))
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "apollo_perfbench", "-j", jobs])
        for cmd in steps:
            if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--perturb", type=float, default=0.0,
                        help="perturb every solve's final state (output-check test)")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            BUILD_ROOT, "perfbench-trace-%s-%d.json" % (args.workload, args.seed))]
    if args.perturb:
        cmd += ["--perturb", repr(args.perturb)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
