"""CPU speed probe: the machine's speed while an op runs, from inside the op.

On a shared host the CPU this process runs on slows down and speeds up by up
to a factor of two, in bursts from milliseconds to minutes, while the process
keeps the CPU (its CPU time equals its wall time).  No number of repeats
makes a raw op time steady under that.  The probe measures the speed itself:
every PERIOD_S of process CPU time a SIGPROF handler runs a fixed pure-Python
probe in two timed parts, arithmetic (100 to 200 us on a 2-core Xeon VM) and
scattered reads of a 1.4 MB list (60 to 300 us), and records how long each
took.  The probe touches no drglab code, so a change to drglab leaves its
time unchanged, while the op it interrupts runs at the same CPU speed.

An op's *normalized* time is its raw time, less the probe time spent inside
it, times the reference time of the chosen part (PROBE_REF_S) over that
part's mean time during the op: the seconds the op would take at the speed
where the part takes its reference time.  The "whole" probe suits work on
arrays and large graphs, whose speed also follows contention for the
caches; the "arithmetic" part suits pure-Python symbolic work, which the
cache state moves far less than it moves the memory part.  An op that holds
fewer than MIN_PROBES probes takes the nearest probes on both sides.

Python runs the handler between bytecodes of the main thread, so a probe
that falls inside a long C call (a large matrix product) waits for it to
return and measures the speed of that moment.
"""

from __future__ import annotations

import signal
import time
from typing import Dict, List, Tuple

#: process CPU seconds between probes
PERIOD_S = 0.02
#: each part's time at the reference speed, a typical one on a 2-core Xeon
#: VM; normalized seconds are seconds at this speed
PROBE_REF_S = {"whole": 350e-6, "arithmetic": 150e-6}
#: probes that make up the speed estimate of an op
MIN_PROBES = 8

#: the memory part's data: 40000 distinct int objects (about 1.4 MB with the
#: list) read in a scattered order, so that it misses the private caches as
#: an op's larger arrays do when another tenant contends for them
_CELLS = list(range(40_000))
_ORDER = [(j * 7919) % 40_000 for j in range(600)]


def _arithmetic() -> int:
    s = 0
    for i in range(1500):
        s += i * i % 7
    return s


def _memory() -> int:
    s = 0
    for j in _ORDER:
        s += _CELLS[j]
    return s


class SpeedProbe:
    """Times the probe on SIGPROF while installed."""

    def __init__(self):
        self.times: Dict[str, List[float]] = {"whole": [], "arithmetic": []}
        self._old = None

    def sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _arithmetic()
        t1 = time.perf_counter()
        _memory()
        t2 = time.perf_counter()
        self.times["whole"].append(t2 - t0)
        self.times["arithmetic"].append(t1 - t0)

    def install(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        if self._old is not None:
            signal.signal(signal.SIGPROF, self._old)
            self._old = None

    def mark(self) -> int:
        """Index of the next probe, taken at an op's start and end."""
        return len(self.times["whole"])

    def normalized(self, raw_s: float, first: int, last: int, part: str) -> float:
        """Seconds at the reference speed of an op that took raw_s and held
        probes first..last-1, from the mean time of the probe part over those
        probes, widened on both sides to at least MIN_PROBES; call it once
        the later probes exist.  Without any probe the op keeps its raw time."""
        series = self.times[part]
        n = len(series)
        if n == 0:
            return raw_s
        net_s = raw_s - sum(self.times["whole"][first:last])
        if last - first < MIN_PROBES:
            grow = MIN_PROBES - (last - first)
            first = max(0, first - grow // 2)
            last = min(n, first + MIN_PROBES)
            first = max(0, last - MIN_PROBES)
        window = series[first:last]
        return net_s * PROBE_REF_S[part] * len(window) / sum(window)


def timed(fn) -> Tuple[float, float]:
    """(raw seconds, seconds normalized by the whole probe) of fn(), with
    its own probe."""
    probe = SpeedProbe().install()
    try:
        t0 = time.perf_counter()
        fn()
        raw = time.perf_counter() - t0
        last = probe.mark()
        # a short call holds too few probes: keep probing just after it
        while probe.mark() < MIN_PROBES:
            probe.sample()
    finally:
        probe.uninstall()
    return raw, probe.normalized(raw, 0, last, "whole")
