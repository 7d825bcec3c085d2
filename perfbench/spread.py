#!/usr/bin/env python3
"""Run every workload (or one) once per seed and print its end-to-end metrics.

    python3 perfbench/spread.py --seeds 1                 # all workloads, once
    python3 perfbench/spread.py --workload array-stream --seeds 1-10

Runs perfbench/run.py one run at a time and prints each run's end-to-end
metrics with their units.  With two or more seeds it then prints, for each
metric that BENCHMARK.json bounds, the median, the quartiles from
statistics.quantiles(values, n=4) and the spread (q3 - q1) / median next to
the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run(workload: str, seed: int, seconds: str):
    """(exit code, end-to-end metrics with units, last line) of one run."""
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = res.stdout.strip().splitlines()
    e2e = next((json.loads(l.split(":", 1)[1]) for l in lines
                if l.startswith("end-to-end:")), {})
    return res.returncode, e2e, json.loads(lines[-1]) if lines else {}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="default: every workload in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", help="default: run_seconds from BENCHMARK.json")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or str(bench["run_seconds"])
    workloads = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    worst = 0.0
    for workload in workloads:
        values = {}
        for seed in seeds(args.seeds):
            code, e2e, last = run(workload, seed, seconds)
            print(f"{workload} seed {seed}: exit {code}, correct={last.get('correct')}: "
                  + ", ".join(f"{k}={m['value']:.4g} {m['unit']}" for k, m in e2e.items()),
                  flush=True)
            if code != 0:
                return 1
            for name, m in last["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        if len(seeds(args.seeds)) < 2:
            continue
        for name, xs in values.items():
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med
            print(f"{workload} {name:12s} median {med:.4g}  q1 {q1:.4g}  q3 {q3:.4g}  "
                  f"spread {spread:.3f}  bound {bounds[name]}")
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
    if worst:
        print(f"largest spread as a share of its bound (setup_s aside): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
