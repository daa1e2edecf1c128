#!/usr/bin/env python3
"""Builds the CAQE end-to-end benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-churn|serve-heavy|batch-large \
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (which compiles ../src) into
.bench_build/; later calls only rebuild what changed. Build output goes to
stderr, so the last line of stdout is always the benchmark's result line.
Recordings and span logs land in .bench_out/. The exit code is the
benchmark's: non-zero when the build fails, the arguments are invalid, or an
output check fails.
"""
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "caqe_perfbench")


def build():
    """Configures (once) and builds the benchmark binary; returns success."""
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout, even if runs overlap.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=sys.stderr) != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        return subprocess.call(
            ["cmake", "--build", BUILD, "--target", "caqe_perfbench",
             "-j", jobs], stdout=sys.stderr) == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    sys.stdout.flush()
    return subprocess.call([BINARY] + sys.argv[1:] + ["--out_dir", OUT])


if __name__ == "__main__":
    sys.exit(main())
