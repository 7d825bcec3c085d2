"""Op runner and span tracer shared by the workloads.

An op is one call into drglab whose verdict the benchmark checks.  The runner
times it, classifies its outcome (result, witness, DrgError, other exception,
or over the per-op time limit) and keeps one record per call.  The tracer, used
only in traced runs, wraps drglab's public functions from outside the library
and accumulates per-function self time and call counts.
"""

from __future__ import annotations

import functools
import inspect
import math
import signal
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from speed import SpeedProbe

FAILURE_OUTCOMES = ("drg_error", "exception", "timeout")

#: drglab modules whose public functions get spans; the module name is the layer
LAYERS = ("families", "graph", "homogeneous", "cab", "srg", "eigen", "polys",
          "scalars", "arrays", "classical", "bounds", "cli")

#: Graph methods that carry the graph layer's own work
GRAPH_METHODS = ("__init__", "distances_from", "distance_matrix",
                 "adjacency_matrix", "bitrows")


class OpTimeout(BaseException):
    """Raised inside an op that ran past the per-op time limit; a
    BaseException so that no ``except Exception`` in the library swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Op:
    """One verdict-bearing call.

    ``check`` receives the call's return value and returns
    ``(kind, problem, extras)``: kind is "result" or "witness", problem is None
    when the verdict is the expected one, extras are counts for the metrics.
    ``known_error`` names exception types that are a documented defect of the
    program; such an op is a probe, counted but not measured.
    """

    group: str
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], Tuple[str, Optional[str], dict]]
    known_error: Tuple[type, ...] = ()

    @property
    def key(self) -> str:
        return f"{self.group}/{self.name}"


@dataclass
class Record:
    """One call.  ``seconds`` is its normalized time (see speed.py), filled
    in by ``Runner.finish``; ``raw_s`` is its wall time."""

    key: str
    group: str
    op: str
    raw_s: float
    outcome: str
    ok: bool
    measured: bool
    problem: Optional[str] = None
    extras: dict = field(default_factory=dict)
    probes: Tuple[int, int] = (0, 0)
    seconds: float = float("nan")


class Runner:
    """Runs ops under a per-op time limit, with the speed probe installed,
    and keeps their records; ``probe_part`` names the part of the probe
    that normalizes their times (see speed.py)."""

    def __init__(self, drg_error: type, limit_s: float, probe_part: str,
                 tracer: "Tracer" = None):
        self.drg_error = drg_error
        self.limit_s = limit_s
        self.probe_part = probe_part
        self.tracer = tracer
        self.records: List[Record] = []
        self.probe = SpeedProbe()

    def __enter__(self) -> "Runner":
        self.probe.install()
        return self

    def __exit__(self, *exc) -> None:
        self.probe.uninstall()
        self.finish()

    def finish(self) -> None:
        """Normalize every record's time, once the probes after it exist."""
        for r in self.records:
            if math.isnan(r.seconds):
                r.seconds = self.probe.normalized(r.raw_s, *r.probes, self.probe_part)

    def run(self, op: Op, measured: bool = True) -> Record:
        if self.tracer is not None:
            self.tracer.context = (op.group, op.name)
        old = signal.signal(signal.SIGALRM, _on_alarm)
        exc: Optional[BaseException] = None
        value = None
        first = self.probe.mark()
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.limit_s)
            try:
                value = op.call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout as e:
            exc = e
        except Exception as e:  # every other failure is an outcome to count
            exc = e
        seconds = time.perf_counter() - t0
        probes = (first, self.probe.mark())
        signal.signal(signal.SIGALRM, old)
        if self.tracer is not None:
            self.tracer.context = ("", "")
        if exc is None:
            try:
                kind, problem, extras = op.check(value)
            except Exception as e:  # a check that cannot read the value
                kind, problem, extras = "result", f"unreadable result: {e!r}", {}
            rec = Record(op.key, op.group, op.name, seconds, kind,
                         problem is None, measured, problem, extras)
        else:
            if isinstance(exc, OpTimeout):
                outcome = "timeout"
            elif isinstance(exc, self.drg_error):
                outcome = "drg_error"
            else:
                outcome = "exception"
            known = isinstance(exc, op.known_error) if op.known_error else False
            problem = None if known else f"{type(exc).__name__}: {exc}"
            rec = Record(op.key, op.group, op.name, seconds, outcome, known,
                         measured, problem,
                         {"error": type(exc).__name__, "known": known})
        rec.probes = probes
        self.records.append(rec)
        return rec


# -- summaries --------------------------------------------------------------


def op_seconds(records: List[Record], lowest: bool, raw: bool = False
               ) -> Dict[str, float]:
    """Each op key's time in the fixed list, from its normalized times (its
    wall times with ``raw``) over the rounds: the lowest when every round
    repeats the identical call (the graph workloads), since interference the
    speed probe misses only ever adds time; else the median (array-stream,
    which draws each round's array for a slot from a narrow valency band).
    """
    by_key: Dict[str, List[float]] = defaultdict(list)
    for r in records:
        by_key[r.key].append(r.raw_s if raw else r.seconds)
    pick = min if lowest else statistics.median
    return {k: pick(v) for k, v in by_key.items()}


def quantile(values: List[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics, so two nearly equal values swapping ranks moves it
    little where a single order statistic would jump."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 16  # Simpson's rule on each [(i-1)/n, i/n]
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        inner = sum((4 if k % 2 else 2) * pdf(lo + k * h) for k in range(1, steps))
        weights.append((pdf(lo) + pdf(lo + steps * h) + inner) * h / 3)
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, xs)) / total


def tail(values: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile with at
    least ten samples beyond it; the maximum when there are too few."""
    n = len(values)
    if n <= 10:
        return max(values), 100.0, n
    q = (n - 10) / n
    return quantile(values, q), 100.0 * q, n


# -- tracing ----------------------------------------------------------------


class Tracer:
    """Spans around drglab's public functions, installed from outside.

    Each span adds its duration minus its children's to the self time of its
    function under the current op context; inclusive time is kept as well.
    """

    def __init__(self):
        self.context: Tuple[str, str] = ("", "")
        self.self_s: Dict[Tuple[Tuple[str, str], str], float] = defaultdict(float)
        self.incl_s: Dict[Tuple[Tuple[str, str], str], float] = defaultdict(float)
        self.calls: Dict[Tuple[Tuple[str, str], str], int] = defaultdict(int)
        self._stack: List[List[float]] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                key = (tracer.context, name)
                tracer.self_s[key] += dt - frame[0]
                tracer.incl_s[key] += dt
                tracer.calls[key] += 1

        return span

    def install(self, package) -> None:
        import importlib
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        namespaces = list(modules.values()) + [package]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", obj)
                for ns in namespaces:
                    if vars(ns).get(attr) is obj:
                        self._undo.append((ns, attr, obj))
                        setattr(ns, attr, wrapped)
        graph_cls = modules["graph"].Graph
        for meth in GRAPH_METHODS:
            obj = vars(graph_cls)[meth]
            self._undo.append((graph_cls, meth, obj))
            setattr(graph_cls, meth, self._wrap(f"graph.Graph.{meth.strip('_')}", obj))

    def uninstall(self) -> None:
        while self._undo:
            ns, attr, obj = self._undo.pop()
            setattr(ns, attr, obj)

    # aggregates ------------------------------------------------------------

    def total(self, table: Dict, fn: str, op: Optional[str] = None) -> float:
        return sum(v for (ctx, name), v in table.items()
                   if name == fn and (op is None or ctx[1] == op))

    def layer_self(self, layer: str) -> float:
        return sum(v for (_, name), v in self.self_s.items()
                   if name.split(".", 1)[0] == layer)

    def by_group(self) -> Dict[str, Dict[str, float]]:
        """Self seconds per op group (graph or array slot) and function."""
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for ((group, _), name), v in self.self_s.items():
            out[group][name] += v
        return {g: dict(v) for g, v in out.items()}
