"""Timings scaled to a reference machine speed.

A shared host changes speed under a benchmark: on the 2-vCPU VM the figures
in README.md come from, the same pass of a workload took up to 40 % longer
in one run than in another, in phases lasting seconds to minutes, in CPU
time as much as in wall time.  So every timing here is scaled by the speed
of a fixed piece of Python, `kernel`, measured at the same moments.

`Calibrator` times `kernel` every INTERVAL_S of a timed region, from a
SIGALRM handler.  A stretch of the region between two kernel runs counts
KERNEL_REF_S / (median kernel time of the WINDOW runs around it) times its
wall time; the kernel runs themselves count nothing.  The result is in
seconds at reference speed: the speed at which `kernel` takes KERNEL_REF_S.
A change to agtaut moves these seconds as it moves wall time, because the
kernel does not call agtaut.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from bisect import bisect_right
from fractions import Fraction
from typing import List, Tuple

clock = time.perf_counter

# It sets only the unit.  Inside passes at the seed commit on the VM above,
# the kernel took 105-190 us, about 180 us in its slower and more common
# phases; so reference seconds come out near the wall seconds seen there.
KERNEL_REF_S = 180e-6
INTERVAL_S = 0.02
# Kernel runs whose median sets the speed of one stretch: 4 before, 4 after.
WINDOW = 8


def kernel() -> None:
    """Fixed work shaped like agtaut's own: Fraction arithmetic, and dict
    lookups keyed by small tuples.  A busy host slows such code more than
    a loop over small ints, so a kernel of this kind tracks it better."""
    acc, rows = Fraction(0), {}
    for i in range(1, 40):
        acc += Fraction(i, i + 1)
        rows[i, i % 7] = [i, acc]


def time_kernel() -> float:
    """Seconds for one run of `kernel`, with the cyclic GC held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        kernel()
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def speed_factor() -> float:
    """KERNEL_REF_S over the median of 5 kernel times taken now: the factor
    that turns seconds measured now into reference seconds."""
    return KERNEL_REF_S / statistics.median(time_kernel() for _ in range(5))


class Calibrator:
    """Times `kernel` during a `with` block; `scale` then converts an
    interval of that block to reference seconds.  The first and last kernel
    runs are taken just outside the block, so that even a short block has
    a speed on both sides."""

    def __init__(self):
        self.start = self.end = 0.0
        # (start, end, kernel seconds) of each kernel run inside the block
        self._runs: List[Tuple[float, float, float]] = []
        self._edges: List[float] = []
        self._busy = False
        self._points: List[float] = []
        self._cum: List[float] = []

    def _tick(self, *_) -> None:
        if self._busy:  # a signal that arrives while the kernel runs is dropped
            return
        self._busy = True
        start = clock()
        seconds = time_kernel()
        self._runs.append((start, clock(), seconds))
        self._busy = False

    def __enter__(self) -> "Calibrator":
        self._edges.append(time_kernel())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.start = clock()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        self.end = clock()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._edges.append(time_kernel())
        self._build()

    def _build(self) -> None:
        """Cumulative reference seconds at every start and end of a kernel
        run inside the block, for `scale`."""
        runs = [r for r in self._runs if r[1] <= self.end]
        kernels = [self._edges[0]] + [k for _, _, k in runs] + [self._edges[1]]
        half = WINDOW // 2
        points, cum = [self.start], [0.0]
        resume = self.start
        for j, stop in enumerate([s for s, _, _ in runs] + [self.end]):
            # Stretch j lies between kernel runs j and j+1 of `kernels`.
            factor = KERNEL_REF_S / statistics.median(kernels[max(0, j + 1 - half) : j + 1 + half])
            points.append(stop)
            cum.append(cum[-1] + (stop - resume) * factor)
            if j < len(runs):
                resume = runs[j][1]
                points.append(resume)
                cum.append(cum[-1])
        self._points, self._cum = points, cum

    def _reference(self, t: float) -> float:
        """Reference seconds of work from the start of the block to clock
        time t (clamped to the block)."""
        points, cum = self._points, self._cum
        if t <= points[0]:
            return 0.0
        if t >= points[-1]:
            return cum[-1]
        i = bisect_right(points, t) - 1
        span = points[i + 1] - points[i]
        return cum[i] + (cum[i + 1] - cum[i]) * (t - points[i]) / span if span else cum[i]

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds of work between clock times t0 and t1."""
        return self._reference(t1) - self._reference(t0)

    @property
    def wall_s(self) -> float:
        """The whole block in reference seconds."""
        return self._cum[-1]

    @property
    def kernel_median_s(self) -> float:
        """Median kernel time inside the block: how fast the machine ran."""
        return statistics.median(k for _, _, k in self._runs) if self._runs else self._edges[0]
