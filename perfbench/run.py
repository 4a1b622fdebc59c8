#!/usr/bin/env python3
"""Builds and runs the RuleTris end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library from ../src and the
benchmark (Release, CMake) into .bench_build/perfbench, runs the generator
hygiene test, then the benchmark. The benchmark's last stdout line is the
JSON result; build and test output goes to stderr. Exits non-zero, without a
result, when the sources are missing, the build or the test fails, or a
correctness gate fails.
"""
import argparse
import fcntl
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("wide_policy_churn", "fleet_churn", "traffic_cacheflow")
RUN_TIMEOUT_S = 170
# The first run right after a build read up to 30 % slow in two of three
# tries, so the box gets a moment to settle.
SETTLE_AFTER_BUILD_S = 15


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def mtime(path):
    return os.path.getmtime(path) if os.path.exists(path) else None


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to perfbench/")
        return False
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", "4", "--target",
                      "perfbench", "perfbench_generator_test"])
        binary = os.path.join(BUILD, "perfbench")
        before = mtime(binary)
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                log("build failed: " + " ".join(cmd))
                return False
        if mtime(binary) != before:
            time.sleep(SETTLE_AFTER_BUILD_S)
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not build():
        return 2
    test = subprocess.run([os.path.join(BUILD, "perfbench_generator_test")],
                          stdout=sys.stderr, stderr=sys.stderr)
    if test.returncode:
        log("generator hygiene test failed")
        return 3
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    # Back the heap with transparent huge pages. In one 24-repetition sample,
    # identical compile work then varied 9 % (IQR) instead of 20 %.
    env = dict(os.environ, GLIBC_TUNABLES="glibc.malloc.hugetlb=1")
    try:
        bench = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                               timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 4
    sys.stdout.write(bench.stdout.decode())
    sys.stdout.flush()
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
