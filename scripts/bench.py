#!/usr/bin/env python3
"""Run the end-to-end benchmark and write the medians and quartiles of its
bounded metrics.

    python scripts/bench.py OUT.json

For every workload that BENCHMARK.json declares, each of the seeds 1, 2 and 3
and each of 3 runs, the script starts ``perfbench/run.py --trace 0`` as a
child process, with BENCHMARK.json's ``run_seconds`` as its ``--seconds`` and
its result file in a temporary directory, and reads the run's end-to-end
metrics from that file.  The seeds, the run count and the run length are
fixed, so that any two files compare seed by seed.  The runs go round by
round (each round runs every workload and seed once), so a slow spell of the
machine spreads over all of them.  OUT.json gets the commit of the tree,
whether the benchmarked files (src/, perfbench/, scripts/ and BENCHMARK.json)
differ from it, the settings, and per workload and seed the median, first and
third quartiles and the samples of every metric that BENCHMARK.json bounds,
and of the share of ops that failed.  Figures are keyed by seed, since a seed
fixes the relabelings and switched copies of a run.

Exit codes: 0 every run succeeded, 1 a run exited non-zero (a wrong verdict
or a crash; its output is printed).  A failing git command stops the script
before any run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
SEEDS = (1, 2, 3)
RUNS = 3


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def summary(samples):
    """Median and quartiles (inclusive method) of the samples."""
    q1, median, q3 = (statistics.quantiles(samples, n=4, method="inclusive")
                      if len(samples) > 1 else samples * 3)
    return {"median": median, "q1": q1, "q3": q3, "samples": samples}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", help="file to write, e.g. BENCH_<n>.json at the repo root")
    args = ap.parse_args(argv)
    commit = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--", "src", "perfbench", "scripts",
                     "BENCHMARK.json"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]] + ["fail_ratio"]
    got = {w: {s: {m: [] for m in metrics} for s in SEEDS} for w in workloads}
    with tempfile.TemporaryDirectory() as tmp:
        for run in range(RUNS):
            for w in workloads:
                for s in SEEDS:
                    out = os.path.join(tmp, f"{w}-{s}-{run}.json")
                    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                           "--workload", w, "--seed", str(s), "--seconds", str(seconds),
                           "--trace", "0", "--out", out]
                    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                    if proc.returncode:
                        print(proc.stdout, proc.stderr, sep="\n", file=sys.stderr)
                        print(f"error: {' '.join(cmd)} exited {proc.returncode}",
                              file=sys.stderr)
                        return 1
                    with open(out) as fh:
                        e2e = json.load(fh)["end_to_end"]
                    for m in metrics:
                        got[w][s][m].append(e2e[m])
                    print(f"run {run + 1}/{RUNS} {w} seed {s}: "
                          + ", ".join(f"{m} {e2e[m]:.4g}" for m in metrics), flush=True)
    result = {"commit": commit, "dirty": dirty,
              "seeds": list(SEEDS), "runs": RUNS, "seconds": seconds,
              "end_to_end": {w: {str(s): {m: summary(v) for m, v in by_seed.items()}
                                 for s, by_seed in per_seed.items()}
                             for w, per_seed in got.items()}}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for w, per_seed in result["end_to_end"].items():
        for s, row in per_seed.items():
            print(f"{w} seed {s}: " + ", ".join(
                f"{m} {r['median']:.4g} [{r['q1']:.4g}, {r['q3']:.4g}]" for m, r in row.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
