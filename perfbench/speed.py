"""Machine-speed calibration for the benchmark's time metrics.

On the small shared VMs this benchmark was built on, the same operation
runs up to 40% faster or slower for stretches of tens of seconds to
minutes.  Twenty runs of a workload then spread by 20% in every time
metric, far more than any optimisation worth measuring.  So each
time is scaled to a reference speed: an operation's time is multiplied
by ``(CAL_REF_S / c) ** EXPONENT``, where ``c`` is the median time of a
fixed pure-Python calibration workload measured next to it -- between
closed-loop operations, between set-up steps, and in the service's
idle gaps.  The calibration does not touch the compiler, so a change to
the compiler moves the scaled times as it moves the raw ones.  Raw
times are kept in the provenance line of every run.

The calibration runs with the garbage collector disabled and forces no
collection, so every collection the compiler's garbage triggers happens
inside a timed operation.
"""

from __future__ import annotations

import contextlib
import gc
from bisect import bisect_left, bisect_right
import statistics
import time
from typing import List, Sequence

#: calibration time that defines the reference speed (about the median
#: on a 2-core x86-64 VM, so that scaled times stay close to raw ones)
CAL_REF_S = 0.008

#: the compiler's operations speed up by the calibration's speed-up to
#: this power.  Across twenty runs that spanned a change of speed of
#: 1.9x, the suite and pgo operations moved by 0.70 to 0.76 of it in
#: log terms; scaling by the full ratio over-corrected fast stretches
#: by 12-15%.  The calibration fits in the caches, the compiler's heap
#: does not.
EXPONENT = 0.75

#: calibrations on each side of an operation in its scaling window
RADIUS = 3


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def calibrate() -> float:
    """Seconds that one fixed mix of object allocation, calls, dict and
    list traffic and string work takes right now (about 8 ms)."""
    # keep the collector out of the measurement, so that the calibration
    # does not pay for whatever heap the previous program left.  No
    # collection is forced here: the collections the program's garbage
    # triggers run inside the operations and are charged to them
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        acc = 0
        for i in range(6000):
            node = _Node(str(i), i)
            table[node.key] = [node.value, node.value + 1,
                               (node.value, node.key)]
            acc += len(table[node.key]) + (i * 7 % 13)
        acc += len(",".join(sorted(table)[:2000]))
        return time.perf_counter() - t0
    finally:
        gc.enable()


def factor(samples: Sequence[float], average=statistics.median) -> float:
    """Scale factor from a set of calibrations taken together."""
    return (CAL_REF_S / average(samples)) ** EXPONENT


def local_factors(samples: Sequence[float]) -> List[float]:
    """Scale factor of each operation: the median of the calibrations
    within ``RADIUS`` operations of it, which follows a change of speed
    within a few operations without following single outliers."""
    return [
        factor(samples[max(0, i - RADIUS):i + RADIUS + 1])
        for i in range(len(samples))
    ]


class StepTimer:
    """Times a sequence of steps, each right after a calibration, and
    scales each by its local factor, as the closed-loop operations are.
    Scaling a long step by calibrations at its two ends does not follow
    the speed changes within it; across eight store pre-warms of the
    service workload, per-compile steps took the spread from 18% to 7%
    (coefficient of variation)."""

    def __init__(self):
        self.raw: List[float] = []
        self._cal: List[float] = []

    @contextlib.contextmanager
    def step(self):
        self._cal.append(calibrate())
        t0 = time.perf_counter()
        yield
        self.raw.append(time.perf_counter() - t0)

    def scaled(self) -> float:
        factors = local_factors(self._cal)
        return sum(s * f for s, f in zip(self.raw, factors))


def timed_factors(cal_at: Sequence[float], cal_s: Sequence[float],
                  times: Sequence[float], window_s: float,
                  average=statistics.median) -> List[float]:
    """Scale factor at each of ``times``: from the ``average`` of the
    calibrations taken at ``cal_at`` (sorted) within ``window_s`` of it,
    or the nearest one when none is."""
    out = []
    for t in times:
        lo = bisect_left(cal_at, t - window_s)
        hi = bisect_right(cal_at, t + window_s)
        if lo == hi:
            lo = min(range(max(lo - 1, 0), min(lo + 1, len(cal_at))),
                     key=lambda i: abs(cal_at[i] - t))
            hi = lo + 1
        out.append(factor(cal_s[lo:hi], average))
    return out
