#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  On first use it configures and builds the
driver into .bench_build/ (the repository's own CMake build with the
driver added), then runs one workload and relays the driver's output.  The
last stdout line is the JSON result; the line before it is the fingerprint
(host, build, source, seed, workload size).  Flags beyond the four above
(--ops, --corrupt) pass through to the driver.

Exit status: 0 with a result line, non-zero without one (no sources to
build, build failure, driver failure or timeout).
"""
import argparse
import ctypes
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench", "perfbench_driver")
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 720  # a cold build of the simulator libraries
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# What the driver is built from; hashed into the fingerprint's source id.
SOURCE_PATHS = ("CMakeLists.txt", "src", "machines", "perfbench")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def die_with_parent():
    """Child-side: get SIGKILL if this script dies, so no driver outlives it."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def run_checked(cmd, timeout):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, preexec_fn=die_with_parent)
    if proc.returncode != 0:
        fail(f"command failed ({proc.returncode}): {' '.join(cmd)}", 1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        fail(f"no simulator sources to build in {ROOT}")
    cmake = shutil.which("cmake") or fail("cmake not found on PATH")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            run_checked([cmake, "-S", ROOT, "-B", BUILD, *generator,
                         "-DCMAKE_BUILD_TYPE=Release",
                         "-DCMAKE_PROJECT_INCLUDE=" +
                         os.path.join(HERE, "project_include.cmake")],
                        CONFIGURE_TIMEOUT_S)
        run_checked([cmake, "--build", BUILD, "--target", "perfbench_driver",
                     "-j", "3"], BUILD_TIMEOUT_S)


def source_id():
    """git commit when the tree is a git checkout, plus a digest of the
    files the driver is built from (the commit alone misses local edits)."""
    digest = hashlib.sha256()
    for top in SOURCE_PATHS:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                digest.update(fh.read())
    tree = "tree:" + digest.hexdigest()[:16]
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return tree
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        return f"git:{commit.stdout.strip()} {tree}"
    except (OSError, subprocess.SubprocessError):
        return tree


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args, extra = parser.parse_known_args()

    build()
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source", source_id(), *extra]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, f"{args.workload}-seed{args.seed}.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S,
                              preexec_fn=die_with_parent)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}", proc.returncode)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver printed no result line", 1)
    if set(result) != RESULT_KEYS:
        fail(f"malformed result line: {lines[-1]}", 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
