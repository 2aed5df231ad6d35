#!/usr/bin/env python3
"""Builds and runs the closed-loop serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload dense-churn --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --test      # build and run the benchmark's tests

The first call configures and builds the library and the benchmark under
.bench_build/perfbench (Release); later calls rebuild incrementally.  Build
output goes to stderr, so the last stdout line is the benchmark's JSON
result.  The exit code is the benchmark's: 0 only when every correctness
check passed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build(build_dir, *cmake_args):
    """Configures (once) and builds the benchmark project in build_dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources not found under " + ROOT)
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release", *cmake_args])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def main(argv):
    if argv == ["--test"]:
        build_dir = os.path.join(BUILD_ROOT, "perfbench-test")
        build(build_dir, "-DPERFBENCH_TESTS=ON")
        return subprocess.run([os.path.join(build_dir, "perfbench_test")]).returncode

    build_dir = os.path.join(BUILD_ROOT, "perfbench")
    build(build_dir)
    command = [os.path.join(build_dir, "perfbench"), *argv,
               "--spans-dir", os.path.join(BUILD_ROOT, "perfbench-spans")]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: no result within %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
