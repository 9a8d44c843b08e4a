#!/usr/bin/env python3
"""Builds the perfbench harness from this checkout's sources and runs one
workload.

    python3 perfbench/run.py --workload study|ingest|query --seed N \
        --seconds S --trace 0|1 [--size full|tiny] [--corrupt KIND]

Run from the root of a checkout. The build (CMake, Release) goes to
.bench_build/perfbench and is reused by later runs; build output goes to
stderr so the last line of stdout is the harness's JSON result. Scratch
files (WAL segments, checkpoint logs, traces) live under .bench_build/ too.
Exits non-zero, without a result, when the sources are missing or the build
fails.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["study", "ingest", "query"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full")
    p.add_argument("--corrupt", choices=["none", "digest", "log", "answer"],
                   default="none")
    return p.parse_args(argv)


def build():
    """Configures (once) and builds the harness; returns False on failure."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                         "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        result = subprocess.run(
            ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
             "-j", jobs], stdout=sys.stderr)
        return result.returncode == 0


def main(argv):
    args = parse_args(argv)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work_dir = os.path.join(BUILD_ROOT, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--corrupt", args.corrupt,
           "--work-dir", work_dir]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(BINARY, cmd)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
