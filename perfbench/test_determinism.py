#!/usr/bin/env python3
"""Determinism test for the benchmark driver.

    python3 perfbench/test_determinism.py [--seed N] [WORKLOAD ...]

Runs each workload shortened (--short: at most two instances, a tenth of
the simulated horizon, 200 churn requests) twice at one seed, once
untraced and once traced, and asserts that the two runs print identical
fingerprints (schedule, latency-sample, admission-state and verdict
hashes), identical deterministic metrics and identical counts, and that
neither run failed an operation.  Fingerprints are compared between runs,
never to constants: a solver change may legitimately change the models.
"""

import argparse
import json
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (after the bytecode switch)

PREFIXES = ("fingerprint ", "deterministic ", "count ")


def outputs(binary, workload, seed, trace):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         "1", "--trace", str(trace), "--short"],
        stdout=subprocess.PIPE, text=True, check=True,
        timeout=run.RUN_TIMEOUT_S).stdout.splitlines()
    lines = [l for l in out if l.startswith(PREFIXES)]
    return lines, json.loads(out[-1])


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("workloads", nargs="*", default=list(run.WORKLOADS))
    args = p.parse_args(argv)
    binary = run.build()
    ok = True
    for workload in args.workloads:
        first, r1 = outputs(binary, workload, args.seed, 0)
        second, r2 = outputs(binary, workload, args.seed, 1)
        problems = []
        if not first:
            problems.append("no fingerprints printed")
        if first != second:
            diff = sorted(set(first) ^ set(second))
            problems.append("runs differ: " + "; ".join(diff[:6]))
        for r in (r1, r2):
            if not r["correct"] or r["failed"]:
                problems.append(f"{r['failed']} of {r['attempted']} "
                                "operations failed")
        status = "ok" if not problems else "FAIL: " + " | ".join(problems)
        print(f"{workload}: {len(first)} fingerprint/metric/count lines "
              f"compared: {status}")
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
