#!/usr/bin/env python3
"""Build the DOSAS runtime benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <small_active|striped_rw|dosas_mix> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) under the repository root; a build that is up to date
costs a second. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "cluster.hpp")):
        sys.exit("perfbench: the DOSAS runtime sources (src/) are not in this checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(out, "dosas_perfbench")


def main():
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    sys.stdout.flush()
    try:
        result = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
