#!/usr/bin/env python3
"""Runs one workload K times on the checked-out commit, one seed per run,
and prints the median and quartiles of every end-to-end metric.

Usage, from the root of the repository:

  python3 perfbench/steadiness.py --workload NAME [--runs K]

Seeds are 1..K. Each run lasts run_seconds from BENCHMARK.json, the length
the benchmark is judged at, and is untraced. Quartiles are Python's
statistics.quantiles(values, n=4); "spread" is (Q3 - Q1) / median, the
figure each end-to-end bound in BENCHMARK.json must stay above. The run
fails (exit 1) if any run reports incorrect outputs or a failed share
that differs between runs.
"""

import argparse
import fractions
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()
    with open(SPEC) as f:
        seconds = json.load(f)["run_seconds"]

    values = {}
    units = {}
    shares = set()
    ok = True
    for seed in range(1, args.runs + 1):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print("seed %d: exit code %d, no result" % (seed, out.returncode))
            return 1
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        shares.add(fractions.Fraction(result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d (%.1f s): correct=%s attempted=%d failed=%d  %s" %
              (seed, time.monotonic() - t0, result["correct"],
               result["attempted"], result["failed"],
               " ".join("%s=%.6g" % (k, m["value"])
                        for k, m in result["metrics"].items())), flush=True)

    print("%-36s %14s %14s %14s %8s  %s" %
          ("metric", "median", "Q1", "Q3", "spread", "unit"))
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],
                                                                      v[0],
                                                                      v[0])
        spread = (q3 - q1) / med if med else float("nan")
        print("%-36s %14.6g %14.6g %14.6g %8.4f  %s" %
              (name, med, q1, q3, spread, units[name]))
    if not ok:
        print("FAIL: some run reported incorrect outputs")
        return 1
    if len(shares) > 1:
        print("FAIL: failed share differs between runs: %s" % sorted(shares))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
