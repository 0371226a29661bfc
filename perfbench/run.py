#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload dense_tuned --seed 1 --seconds 15 --trace 0

Builds perfbench/ (which compiles the repository's src/ tree) into
.bench_build/perfbench under the repository root, then runs
csense_perfbench with the same arguments. The driver's output is passed
through; its last line is the JSON result. Exits non-zero, printing no
result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "csense_perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then an incremental build (a no-op when current)."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "csense_perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace,
               "--scratch", os.path.join(ROOT, ".bench_build", "scratch")]
    if args.trace == "1":
        command += ["--spans", os.path.join(
            ROOT, ".bench_build", "spans",
            f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.exit("perfbench: driver exited with %d" % done.returncode)
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(done.stdout)
        sys.exit("perfbench: driver printed no JSON result")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
