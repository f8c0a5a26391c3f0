#!/usr/bin/env python3
"""Repo benchmark entry point: build the measuring program, run it.

    python3 perfbench/run.py --workload campaign|city|serve-mix \
        --seed N --seconds S --trace 0|1 [--spans-out PATH]
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The program is built from the
checkout's own sources (perfbench/ plus src/) into .bench_build/ (or
$CARGO_TARGET_DIR when set), configured RelWithDebInfo like the repo's
default build. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; traced runs also write a
Chrome-trace spans file (default .bench_build/traces/<workload>-seed<N>.json).
Without the simulator sources the build fails and no result is printed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign", "city", "serve-mix")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then an incremental build; build output goes to
    stderr so standard output carries only the measurement."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under %s/src; nothing to build" % ROOT)
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(bdir, "CMakeCache.txt")
        if os.path.isfile(cache):
            # A build tree configured from another checkout cannot be
            # reused: configure afresh for this one.
            with open(cache) as f:
                if ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE) not in f.read():
                    os.remove(cache)
        if not os.path.isfile(cache):
            rc = subprocess.call(
                ["cmake", "-S", HERE, "-B", bdir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=sys.stderr, stderr=sys.stderr)
            if rc != 0:
                fail("cmake configure failed")
        jobs = str(os.cpu_count() or 1)
        rc = subprocess.call(
            ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs],
            stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            fail("build failed")
    return os.path.join(bdir, "perfbench")


def safe_output_path(path, bdir):
    """The benchmark writes only where it is told, and never over a file
    outside its build directory (tracked files such as BENCH_*.json)."""
    path = os.path.abspath(path)
    inside = os.path.commonpath([path, os.path.dirname(bdir)]) == \
        os.path.dirname(bdir)
    if os.path.exists(path) and not inside:
        fail("refusing to overwrite %s" % path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def valid_result(line):
    try:
        obj = json.loads(line)
    except ValueError:
        return False
    return (isinstance(obj, dict)
            and set(obj) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(obj["attempted"], int) and obj["attempted"] >= 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default="")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    bdir = build_dir()
    exe = build(bdir)
    if args.selftest:
        sys.exit(subprocess.call([exe, "selftest"], timeout=RUN_TIMEOUT_S))

    cmd = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = args.spans_out or os.path.join(
            os.path.dirname(bdir), "traces",
            "%s-seed%d.json" % (args.workload, args.seed))
        cmd += ["--spans-out", safe_output_path(spans, bdir)]
    # Set-up time runs from here: the program's start, not the build.
    cmd += ["--t0-us", "%.3f" % (time.monotonic_ns() / 1e3)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.decode(errors="replace").rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("program exited %d without a result" % proc.returncode)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
