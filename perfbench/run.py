#!/usr/bin/env python3
"""drglab benchmark: one run of one workload.

    python3 perfbench/run.py --workload graph-exhaustive --seed 1 --seconds 30 --trace 0

Workloads: graph-exhaustive, array-stream, large-sampled (see NOTES.md).  A run
repeats the workload's fixed op list for round(--seconds / the round's nominal
cost) rounds, at least one, checks every verdict, and prints one JSON
object as the last line of stdout.  Op times are normalized to a reference
CPU speed by the speed probe (speed.py).  With --trace 0 the last line holds
the end-to-end metrics; with --trace 1 the per-layer metrics of a traced pass
that follows an untraced pass of the same length.  The full result, with the
run record and per-op times, goes to perfbench/results/ (or --out).

Exit codes: 0 every verdict is right, 1 some verdict is wrong, 2 drglab's
sources are not in src/ beside this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

from harness import (FAILURE_OUTCOMES, LAYERS, Record, Runner, Tracer,  # noqa: E402
                     op_seconds, quantile, tail)
from record import run_record  # noqa: E402
from speed import PERIOD_S, PROBE_REF_S  # noqa: E402
from setup_probe import warm_up  # noqa: E402
from table import render  # noqa: E402

#: module, class, nominal normalized seconds per round at the parent, op
#: limit, the part of the speed probe that normalizes op times (speed.py)
WORKLOADS = {
    "graph-exhaustive": ("graph_work", "GraphExhaustive", 9.0, 120.0, "whole"),
    "array-stream": ("array_work", "ArrayStream", 9.0, 30.0, "arithmetic"),
    "large-sampled": ("graph_work", "LargeSampled", 27.0, 120.0, "whole"),
}
#: timed set-up probes per run, after one untimed probe that fills file caches
SETUP_PROBES = 4

#: end-to-end metrics and their units; the last line carries the ones that
#: BENCHMARK.json bounds
UNITS = {"wall_s": "s", "wall_raw_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
         "op_ms_tail": "ms", "tail_percentile": "%", "tail_samples": "count",
         "peak_rss_mb": "MB", "setup_s": "s", "setup_raw_s": "s",
         "fail_ratio": "ratio"}
#: array-stream names of the per-op metrics
ARRAY_NAMES = {"ops_per_s": "arrays_per_s", "op_ms_p50": "array_ms_p50",
               "op_ms_tail": "array_ms_tail"}


NAME_OF = {v: k for k, v in ARRAY_NAMES.items()}


def bounded_metrics() -> List[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)["end_to_end"]]


def import_drglab():
    if not os.path.isfile(os.path.join(SRC, "drglab", "__init__.py")):
        print(f"error: drglab sources not found in {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import drglab
    import drglab.cli
    if os.path.dirname(os.path.abspath(drglab.__file__)) != os.path.join(SRC, "drglab"):
        print(f"error: imported drglab from {drglab.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return drglab


def setup_seconds(workload: str, probes: int) -> List[List[float]]:
    """[raw, normalized] seconds of import plus first call, each in a fresh
    process; the first probe is untimed so that compiled bytecode and the
    file cache are warm."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload]
    times = []
    for i in range(probes + 1):
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        if i:
            times.append([float(x) for x in res.stdout.split()[-2:]])
    return times


def measure(workload, runner: Runner, first: int, rounds: int, cap_s: float) -> int:
    """Run ``rounds`` rounds of the op list from round ``first`` on, starting
    none after cap_s.  The count is fixed so that every run of the same code
    takes each op's time over the same number of samples."""
    start = time.perf_counter()
    done = 0
    with runner:
        for index in range(first, first + rounds):
            if done and time.perf_counter() - start > cap_s:
                break
            for op in workload.round_ops(index):
                runner.run(op)
            done += 1
    return done


def end_to_end(records: List[Record], latency_per_call: bool,
               setup: List[List[float]], peak_mb: float):
    """wall_s is the fixed op list's time, the sum of its ops' normalized
    times; wall_raw_s the same from wall times.  The latency samples are
    every call when each call has its own input (array-stream), else each
    op's time."""
    lowest = not latency_per_call
    per_op = op_seconds(records, lowest)
    wall = sum(per_op.values())
    samples = [r.seconds for r in records] if latency_per_call else list(per_op.values())
    tail_s, pct, n = tail(samples)
    metrics = {"wall_s": wall,
               "wall_raw_s": sum(op_seconds(records, lowest, raw=True).values()),
               "ops_per_s": len(per_op) / wall,
               "op_ms_p50": 1e3 * quantile(samples, 0.5),
               "op_ms_tail": 1e3 * tail_s,
               "tail_percentile": pct,
               "tail_samples": n,
               "peak_rss_mb": peak_mb,
               "setup_s": statistics.median(s for _, s in setup),
               "setup_raw_s": statistics.median(r for r, _ in setup)}
    return metrics


def per_layer(tr: Tracer, records: List[Record], rounds: int,
              overhead: float) -> Dict[str, tuple]:
    """Per-round layer metrics of a traced pass, as (value, unit)."""

    def per(x):
        return x / rounds

    def self_s(fn, op=None):
        return per(tr.total(tr.self_s, fn, op)), "s"

    def calls(fn):
        return per(tr.total(tr.calls, fn)), "count"

    def extra(key, ops):
        return per(sum(r.extras.get(key, 0) for r in records if r.op in ops))

    exhaustive = self_s("homogeneous.check_i_homogeneous", "homog")
    sampled = self_s("homogeneous.check_i_homogeneous", "sampled")
    pairs = extra("pairs", ("homog", "sampled"))
    cab = self_s("cab.cab_partition_check")
    cab_pairs = extra("pairs", ("cab",))
    arrays = per(sum(1 for r in records if r.op == "classify"))
    eig_calls = calls("eigen.eigenvalues")
    return {
        "homogeneous.exhaustive_s": exhaustive,
        "homogeneous.sampled_s": sampled,
        "homogeneous.pairs": (pairs, "count"),
        "homogeneous.us_per_pair": (
            1e6 * (exhaustive[0] + sampled[0]) / pairs if pairs else 0.0, "us"),
        "cab.check_s": cab,
        "cab.pairs": (cab_pairs, "count"),
        "cab.us_per_pair": (1e6 * cab[0] / cab_pairs if cab_pairs else 0.0, "us"),
        "graph.check_distance_regular_s": self_s("graph.check_distance_regular"),
        "graph.distance_matrix_s": self_s("graph.Graph.distance_matrix"),
        # inclusive: the spectrum's exact work is polys.rational_nullity
        "graph.spectrum_s": (per(tr.total(tr.incl_s, "graph.graph_spectrum")), "s"),
        "graph.c2_report_s": self_s("graph.c2_regularity_report"),
        "graph.bfs_s": self_s("graph.Graph.distances_from"),
        "graph.bfs_calls": calls("graph.Graph.distances_from"),
        "homogeneous.local_spectral_s": self_s("homogeneous.local_spectral_checks"),
        "srg.from_graph_s": self_s("srg.srg_from_graph"),
        "srg.from_graph_calls": calls("srg.srg_from_graph"),
        "families.build_s": (per(tr.layer_self("families")), "s"),
        "families.vertices": (extra("vertices", ("build",)), "count"),
        "polys.real_roots_s": self_s("polys.real_roots"),
        "polys.real_roots_calls": calls("polys.real_roots"),
        "eigen.eigenvalues_s": self_s("eigen.eigenvalues"),
        "eigen.eigenvalues_calls": eig_calls,
        "eigen.eigenvalues_per_array": (eig_calls[0] / arrays if arrays else 0.0,
                                        "ratio"),
        "eigen.b_parameter_s": self_s("eigen.b_parameter"),
        "classical.fundamental_bound_s": self_s("classical.fundamental_bound"),
        "classical.classify_classical_s": self_s("classical.classify_classical"),
        "classical.classify_tight_s": self_s("classical.classify_tight"),
        # inclusive: the scan over b spends its time in classical_array
        "classical.recognize_s": (per(tr.total(tr.incl_s, "classical.recognize_classical")),
                                  "s"),
        "homogeneous.classify_main_s": self_s("homogeneous.classify_main"),
        "bounds.F_bound_s": self_s("bounds.F_bound"),
        "arrays.feasibility_calls": calls("arrays.basic_feasibility"),
        "scalars.exact_cmp_s": self_s("scalars.exact_cmp"),
        "scalars.exact_cmp_calls": calls("scalars.exact_cmp"),
        "cli.classify_s": (per(tr.total(tr.incl_s, "cli.cmd_classify")), "s"),
        "cli.self_s": (per(tr.layer_self("cli")), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def trace_summary(tr: Tracer, rounds: int) -> dict:
    by_group: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for group, fns in tr.by_group().items():
        for fn, s in fns.items():
            by_group[group][fn.split(".", 1)[0]] += s / rounds
    fn_self: Dict[str, float] = defaultdict(float)
    fn_calls: Dict[str, float] = defaultdict(float)
    for (_, fn), s in tr.self_s.items():
        fn_self[fn] += s / rounds
        fn_calls[fn] += tr.calls[(_, fn)] / rounds
    return {"rounds": rounds, "layers": list(LAYERS),
            "self_s_per_round_by_group": {g: dict(v) for g, v in by_group.items()},
            "self_s_per_round": dict(fn_self), "calls_per_round": dict(fn_calls)}


def outcome_summary(records: List[Record]) -> dict:
    counts = Counter(r.outcome for r in records)
    failed = sum(counts[o] for o in FAILURE_OUTCOMES)
    return {"attempted": len(records), "outcomes": dict(counts), "failed": failed,
            "fail_ratio": failed / len(records),
            "known_failures": sorted({f"{r.key}: {r.extras['error']}"
                                      for r in records if r.extras.get("known")}),
            "wrong": [f"{r.key}: {r.outcome}: {r.problem}"
                      for r in records if not r.ok][:20]}


def composition(records: List[Record]) -> dict:
    """Shares of the array stream's properties and its repeat share."""
    rs = [r for r in records if r.op == "classify" and "D" in r.extras]
    if not rs:
        return {}
    n = len(rs)
    return {"arrays": n,
            "D_range": [min(r.extras["D"] for r in rs), max(r.extras["D"] for r in rs)],
            "k_range": [min(r.extras["k"] for r in rs), max(r.extras["k"] for r in rs)],
            "share_D5_a1_positive": sum(r.extras["d5_a1"] for r in rs) / n,
            "share_tight": sum(r.extras["tight"] for r in rs) / n,
            "share_surd": sum(r.extras["surd"] for r in rs) / n,
            "repeat_share": 1 - len({r.extras["text"] for r in rs}) / n}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="result file (default perfbench/results/...)")
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs and one set-up probe, for the self-test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # one BLAS thread, set before numpy loads and inherited by the set-up
    # probes: all load comes from the one thread the speed probe samples
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    drglab = import_drglab()
    record = run_record(ROOT, SRC, args)
    mod, cls, nominal_s, limit_s, probe_part = WORKLOADS[args.workload]
    setup = setup_seconds(args.workload, 1 if args.tiny else SETUP_PROBES)
    workload = getattr(importlib.import_module(mod), cls)(drglab, args.seed,
                                                          tiny=args.tiny)
    warm_up(drglab, args.workload)

    passes = 2 if args.trace else 1
    rounds = max(1, round(args.seconds / nominal_s) // passes)
    cap_s = 2.0 * max(args.seconds, nominal_s) / passes
    runner = Runner(drglab.errors.DrgError, limit_s, probe_part)
    done = measure(workload, runner, 0, rounds, cap_s)
    plain = list(runner.records)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = end_to_end(plain, workload.latency_per_call, setup, peak_mb)
    result = {"record": record, "rounds": done, "setup_samples_s": setup,
              "end_to_end": metrics,
              "op_s": op_seconds(plain, not workload.latency_per_call),
              "op_samples_s": {k: [r.seconds for r in plain if r.key == k]
                               for k in dict.fromkeys(r.key for r in plain)},
              # raw seconds and probe index range of every measured call, with
              # the probe times, so that the normalization can be re-derived
              "calls": [[r.key, r.raw_s, *r.probes] for r in plain],
              "probe": {"period_s": PERIOD_S, "ref_s": PROBE_REF_S,
                        "part": probe_part, "times_s": runner.probe.times}}
    if args.trace:
        tracer = Tracer()
        runner.tracer = tracer
        tracer.install(drglab)
        try:
            traced_done = measure(workload, runner, done, rounds, cap_s)
        finally:
            tracer.uninstall()
            runner.tracer = None
        traced = runner.records[len(plain):]
        overhead = (sum(op_seconds(traced, not workload.latency_per_call).values())
                    / metrics["wall_s"])
        layer = per_layer(tracer, traced, traced_done, overhead)
        result["trace"] = trace_summary(tracer, traced_done)
        result["per_layer"] = {k: v for k, (v, _) in layer.items()}
    measured = list(runner.records)
    with runner:
        for op in workload.probes:
            runner.run(op, measured=False)

    summary = outcome_summary(runner.records)
    metrics["fail_ratio"] = summary["fail_ratio"]
    if args.workload == "array-stream":
        metrics.update({ARRAY_NAMES[k]: metrics[k] for k in ARRAY_NAMES})
    result["outcomes"] = summary
    result["stream"] = composition(measured)
    result["record"]["loadavg_end"] = os.getloadavg()
    correct = all(r.ok for r in runner.records)
    out = args.out or os.path.join(
        HERE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1, default=str)

    print("record:", json.dumps(result["record"], default=str))
    print(render(result))
    print("outcomes:", json.dumps(summary))
    if result["stream"]:
        print("stream:", json.dumps(result["stream"]))
    print("end-to-end:", json.dumps(
        {k: {"value": v, "unit": UNITS[NAME_OF.get(k, k)]} for k, v in metrics.items()}))
    print("result file:", os.path.relpath(out, ROOT))
    if args.trace:
        shown = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        shown = {k: {"value": metrics[k], "unit": UNITS[k]} for k in bounded_metrics()}
    failed = sum(1 for r in measured if r.outcome in FAILURE_OUTCOMES)
    print(json.dumps({"correct": correct, "attempted": len(measured),
                      "failed": failed, "metrics": shown}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
