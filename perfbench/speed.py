"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of one virtual CPU drifts by tens of percent
within seconds, so raw wall times of the same work spread more between runs
than any useful regression bound.  The benchmark therefore pins itself and
its children to one CPU and probes that CPU's speed by timing a fixed
calibration unit: in the parent before and after every child, and inside a
child every ``SAMPLE_EVERY_S`` from a timer signal, plus wherever a workload
asks for one.  All probes land on one timeline, because ``perf_counter`` is
``CLOCK_MONOTONIC`` in every process.  ``Timeline.adjust`` turns an
operation's interval into *reference seconds*: its wall time minus the
probes taken inside it, scaled by ``REFERENCE_S`` over the mean unit time of
those probes and of the nearest probe on each side.  Single operations stay
noisy, but the medians a run reports become steady.

The unit does the two kinds of work holoflow spends its time on, exact
``Fraction`` arithmetic with dictionary updates and a float Runge-Kutta-like
list loop, in code of its own: a change to holoflow cannot move it.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import time
from fractions import Fraction
from typing import List, Tuple

#: seconds one calibration unit takes at the reference speed (about the
#: median on the 2-CPU host the benchmark was tuned on)
REFERENCE_S = 0.005
#: calibration units in a probe between operations; the probe reports their median
UNITS_PER_PROBE = 3
#: wall time between the probes a Sampler takes while an operation runs
SAMPLE_EVERY_S = 0.1

#: (start on the monotonic clock, seconds per calibration unit, seconds spent)
Probe = Tuple[float, float, float]


def calibration_unit():
    acc = Fraction(0)
    table = {}
    for i in range(1, 800):
        acc += Fraction(i % 97 + 1, i % 89 + 2)
        table[(i % 13, i % 7)] = acc
    y = [1.0, 0.5, 0.25, 0.125]
    for _ in range(1500):
        k = [0.1 * v - v * v for v in y]
        y = [v + 1e-3 * kk for v, kk in zip(y, k)]
    return acc, y


_probing = False  # a probe is running; a Sampler's tick then takes none


def probe(units: int = UNITS_PER_PROBE) -> Probe:
    """Time ``units`` calibration units now."""
    global _probing
    _probing = True
    try:
        start = time.perf_counter()
        times = []
        for _ in range(units):
            t = time.perf_counter()
            calibration_unit()
            times.append(time.perf_counter() - t)
        return (start, statistics.median(times), time.perf_counter() - start)
    finally:
        _probing = False


class Sampler:
    """While active, takes a one-unit probe every SAMPLE_EVERY_S of wall time
    from a SIGALRM handler, so long operations get probes inside them.  A tick
    that falls inside another probe is dropped, so probes never nest.  (Blocking
    the signal would not do: numpy, which holoflow imports, starts a second
    thread, and that thread can take the signal for the main one.)"""

    def __init__(self, probes: List[Probe]):
        self.probes = probes

    def _tick(self, signum, frame):
        if not _probing:
            self.probes.append(probe(units=1))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class Timeline:
    """All probes of a run, sorted by start."""

    def __init__(self, probes: List[Probe]):
        self.probes = sorted(probes)
        self._starts = [p[0] for p in self.probes]

    def _split(self, start: float, end: float):
        i = bisect.bisect_left(self._starts, start)
        j = bisect.bisect_left(self._starts, end)
        inside = self.probes[i:j]
        near = inside + self.probes[max(i - 1, 0) : i] + self.probes[j : j + 1]
        if not near:
            raise ValueError("no speed probe near the interval")
        return inside, near

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per second of work between ``start`` and ``end``."""
        _, near = self._split(start, end)
        return REFERENCE_S / statistics.fmean(p[1] for p in near)

    def adjust(self, start: float, end: float) -> float:
        """Reference seconds of the work done between ``start`` and ``end``."""
        inside, _ = self._split(start, end)
        return (end - start - sum(p[2] for p in inside)) * self.factor(start, end)


def pin_to_one_cpu() -> int:
    """Pin this process (and the children it starts) to one allowed CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
