#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload online|serve --seed N \
        --seconds S --trace 0|1

The driver is built (CMake, Release) under .bench_build/perfbench in the
checkout, linked against the repository's libraries; build output goes
to stderr so the driver's JSON result stays the last line of stdout.
Scratch files (WAL directories, span traces) go to .bench_build/work.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
DRIVER = os.path.join(BUILD, "perfbench_driver")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: no repository sources next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench_driver", "-j", jobs],
        stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["online", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        sys.exit(f"perfbench: build failed: {error}")
    os.makedirs(WORK, exist_ok=True)
    result = subprocess.run([
        DRIVER, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--work-dir", WORK])
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
