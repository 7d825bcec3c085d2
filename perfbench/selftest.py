#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a planted wrong verdict and a planted exception both fail the run, and
that changing the seed changes the inputs but not the expected verdicts.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from array_work import ArrayStream  # noqa: E402
from graph_work import TINY_LARGE, GraphExhaustive, LargeSampled  # noqa: E402

drglab = run.import_drglab()


def run_quietly(argv):
    """run.main on tiny inputs with its output captured; returns (code, last line)."""
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run.main(argv + ["--tiny", "--out", os.path.join(tmp, "r.json")])
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


class MetricsEmitted(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        kinds = {0: bench["end_to_end"], 1: bench["per_layer"]}
        for w in bench["workloads"]:
            for trace, named in kinds.items():
                with tempfile.TemporaryDirectory(dir=HERE) as tmp:
                    res = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"),
                         "--workload", w["name"], "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--tiny",
                         "--out", os.path.join(tmp, "r.json")],
                        cwd=ROOT, capture_output=True, text=True, timeout=300)
                self.assertEqual(res.returncode, 0, res.stderr)
                last = json.loads(res.stdout.strip().splitlines()[-1])
                self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(last["correct"])
                self.assertEqual({k: m["unit"] for k, m in last["metrics"].items()},
                                 {m["name"]: m["unit"] for m in named})


class PlantedFaults(unittest.TestCase):
    argv = ["--workload", "graph-exhaustive", "--seed", "1", "--seconds", "1"]

    def plant(self, module, name, replacement):
        original = getattr(module, name)
        setattr(module, name, replacement)
        self.addCleanup(setattr, module, name, original)

    def test_wrong_verdict_fails_the_run(self):
        wrong = drglab.arrays.IntersectionArray((3, 2), (1, 1))
        self.plant(drglab.graph, "check_distance_regular", lambda g: wrong)
        code, last = run_quietly(self.argv)
        self.assertEqual(code, 1)
        self.assertFalse(last["correct"])

    def test_exception_fails_the_run(self):
        def boom(*args, **kwargs):
            raise RuntimeError("planted")
        self.plant(drglab.graph, "c2_regularity_report", boom)
        code, last = run_quietly(self.argv)
        self.assertEqual(code, 1)
        self.assertFalse(last["correct"])
        self.assertGreater(last["failed"], 0)

    def test_wrong_classification_fails_the_run(self):
        real = drglab.cli.classify_main

        def wrong(bundle):
            out = real(bundle)
            return type(out)(out.theorem, "vi", out.name, out.branches, out.evidence)
        self.plant(drglab.cli, "classify_main", wrong)
        code, last = run_quietly(["--workload", "array-stream", "--seed", "1",
                                  "--seconds", "1"])
        self.assertEqual(code, 1)
        self.assertFalse(last["correct"])


class SeedChangesInputsOnly(unittest.TestCase):
    def test_graph_inputs(self):
        a, b = (GraphExhaustive(drglab, s, tiny=True) for s in (1, 2))
        strip = [{k: v for k, v in g.items() if k != "adj"} for g in a.inputs]
        self.assertEqual(strip, [{k: v for k, v in g.items() if k != "adj"}
                                 for g in b.inputs])
        self.assertNotEqual([g["adj"] for g in a.inputs], [g["adj"] for g in b.inputs])

    def test_array_inputs(self):
        a, b = (ArrayStream(drglab, s, tiny=True) for s in (1, 2))

        def verdicts(stream):
            out = []
            for _, members in stream.slots:
                _, ia, expect = members[0]
                d5_a1 = len(ia[0]) >= 5 and ia[0][0] - ia[0][1] - 1 > 0
                out.append(expect["branches"] if d5_a1 else [])
            return out

        self.assertEqual(verdicts(a), verdicts(b))
        self.assertNotEqual([m[0][1] for _, m in a.slots], [m[0][1] for _, m in b.slots])

    def test_sample_seeds(self):
        witnesses = []
        for seed in (1, 2):
            ops = LargeSampled(drglab, seed, tiny=True).round_ops(0)
            self.assertEqual([o.key for o in ops],
                             [f"{g[0]}/{op}" for g in TINY_LARGE
                              for op in ("build", "sampled")])
            build, sampled = ops[-2:]  # the folded graph, refuted on every seed
            build.call()
            rep = sampled.call()
            self.assertFalse(rep.holds)
            witnesses.append(rep.witness)
        self.assertNotEqual(*witnesses)


if __name__ == "__main__":
    unittest.main()
