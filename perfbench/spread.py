#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

  python3 perfbench/spread.py --workload local_fresh --runs 10

Runs perfbench/run.py once per seed (1..runs) for BENCHMARK.json's
run_seconds and prints, per end-to-end metric, the median and the
interquartile range as a share of the median
(statistics.quantiles(values, n=4)), next to a third of the metric's
bound from BENCHMARK.json: a steady benchmark keeps every spread below
that third.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    values = {}
    for seed in range(1, args.runs + 1):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        result = json.loads(r.stdout.strip().splitlines()[-1])
        if r.returncode != 0 or not result["correct"]:
            print("seed %d failed" % seed)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    steady = True
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        limit = m["bound"] / 3
        ok = spread < limit
        steady = steady and ok
        print("%-22s median %14.4f  spread %.4f  (third of bound %.4f) %s"
              % (m["name"], med, spread, limit, "ok" if ok else "TOO WIDE"))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
