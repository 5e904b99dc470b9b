#!/usr/bin/env python3
"""Builds the ELSI benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 elsibench/run.py --workload osm1|nyc --seed N \
        --seconds S --trace 0|1 [--size full|smoke]
    python3 elsibench/run.py --regenerate-inputs

The benchmark binary and the program's libraries are built with CMake into
.bench_build/elsibench (incremental after the first run); build output goes
to standard error. The last line of standard output is the run's JSON
result. Scratch files (WAL and snapshot directories) live under
.bench_build/work and are removed by the run that made them.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "elsibench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
INPUTS_DIR = os.path.join(HERE, "inputs")
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            if step[1] == "-S":
                # A failed configure leaves a cache that would skip the next
                # attempt; drop it so a fixed tree reconfigures.
                cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
            sys.exit("elsibench: build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "elsibench")


def main():
    binary = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [binary] + sys.argv[1:] + ["--inputs", INPUTS_DIR, "--work", WORK_DIR]
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("elsibench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
