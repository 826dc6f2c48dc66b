#!/usr/bin/env python3
"""Steadiness of the benchmark: run each workload N times, one seed per
run, and print the median and quartiles of every end-to-end metric.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workloads a,b]

Quartiles are Python's statistics.quantiles(values, n=4). The spread is
(Q3 - Q1) / median; the bounds in BENCHMARK.json are set so that every
spread except setup_s's stays under a third of its bound. The failed
share must be identical in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workloads", default=",".join(names))
    a = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in a.workloads.split(","):
        results = []
        for i in range(a.runs):
            r = run_once(workload, a.first_seed + i, a.seconds)
            results.append(r)
            print(f"# {workload} seed {a.first_seed + i}: "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {a.runs} runs, correct={correct}, failed shares={sorted(shares)}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = metric == "setup_s" or spread < bound / 3
            steady &= ok and correct and len(shares) == 1
            print(f"  {metric:<20} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {100 * spread:.2f}%  bound {100 * bound:.0f}%  {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
