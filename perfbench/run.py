#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

On first use this configures and builds perfbench/ (the library from src/
plus the benchmark driver, Release) into .bench_build/perfbench at the
repository root; later runs only re-check the build.  It then runs one
workload and relays the driver's output, whose last line is the JSON
result.  Build output goes to stderr.  Exit status is non-zero, with no
result printed, when the build or the run fails.
"""

import argparse
import contextlib
import fcntl
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "etsn_perfbench")
WORKLOADS = ("testbed-smt", "mesh-5000", "admission-churn")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver; raises on failure."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configured = any(os.path.exists(os.path.join(BUILD, f))
                         for f in ("build.ninja", "Makefile"))
        if not configured:
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, stdout=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD, "--parallel", jobs],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return BINARY


@contextlib.contextmanager
def claim_cpu():
    """Yields a CPU no other run of this checkout holds, or None.

    A run is pinned to one CPU: the portfolio's single worker thread then
    hands off to and from the caller without cross-CPU wake-ups, whose
    latency on a shared host swings re-solve times by 20%.  Each CPU is
    claimed by a lock file, highest-numbered first, so concurrent runs land
    on different CPUs; when every CPU is held the run is not pinned.
    """
    for cpu in sorted(os.sched_getaffinity(0), reverse=True):
        with open(os.path.join(BUILD, f"cpu{cpu}.lock"), "w") as lock:
            try:
                fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                continue
            yield cpu
            return
    yield None


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv):
    args = parse(argv)
    # A SIGTERM unwinds through subprocess.run, which kills and reaps the
    # build or the benchmark binary before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    tag = f"{args.workload}-{args.seed}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--untraced", os.path.join(BUILD, f"untraced-{tag}.txt")]
    if args.trace:
        cmd += ["--spans", os.path.join(BUILD, f"spans-{tag}.jsonl")]
    with claim_cpu() as cpu:
        pin = None if cpu is None else (
            lambda: os.sched_setaffinity(0, {cpu}))
        try:
            proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, preexec_fn=pin)
        except subprocess.TimeoutExpired:
            print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s",
                  file=sys.stderr)
            return 1
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
