#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread, the way its bounds are set.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workloads a,b] [--raw]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...) on
each workload and prints, per (workload, metric), the median, the first
and third quartiles (statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median, and that spread as a share of the metric's bound in
BENCHMARK.json.  Spreads above a third of the bound are flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    start = time.time()
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return result, time.time() - start


def main(argv):
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--raw", action="store_true",
                   help="also print every run's value")
    args = p.parse_args(argv)

    metrics = spec["end_to_end"]
    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        walls = []
        for i in range(args.runs):
            result, wall = run_once(workload, args.first_seed + i,
                                    spec["run_seconds"])
            walls.append(wall)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {args.first_seed + i}: INCORRECT "
                      f"({result['failed']} of {result['attempted']} failed)")
                ok = False
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
        print(f"\n{workload}: {args.runs} runs, wall {min(walls):.1f}-"
              f"{max(walls):.1f} s")
        print("| metric | median | Q1 | Q3 | spread | bound | spread/bound |")
        print("|---|---|---|---|---|---|---|")
        for m in metrics:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            share = spread / m["bound"]
            flag = ""
            if share > 1 / 3 and m["name"] != "setup_s":
                flag = "  <-- above a third of the bound"
                ok = False
            print(f"| {m['name']} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.4f} | {m['bound']} | {share:.2f} |{flag}")
            if args.raw:
                print("    " + " ".join(f"{x:.6g}" for x in v))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
