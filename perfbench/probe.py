"""Host speed probe: scales measured times to a fixed reference speed.

On a shared host the speed of a core drifts by tens of percent within
minutes, as other tenants come and go: on a 2-core Intel Xeon VM, a fixed
piece of work timed in 30 s windows back to back took from 1.07 s to
1.52 s.  The probe times a fixed pure-Python loop between operations, and
each operation's wall time is scaled by ``REF_S / probe time`` measured
around it.  Fixed work then reads within a few percent across those
windows.  A reported time is the wall time the operation would take on a
host where the probe takes ``REF_S``.

The loop uses only dict, set and int operations of the interpreter and
runs with the garbage collector off, so nothing the program under test
sets up (caches, collector settings) changes what the probe measures.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from time import perf_counter

# Probe time at the reference speed, close to its median on a 2-core
# Intel Xeon VM running CPython 3.11.
REF_S = 0.005
PROBE_ITERS = 15_000
# A timed loop probes after an operation once this long has passed since
# the last probe; an operation is scaled by the probes within WINDOW_S of it.
EVERY_S = 0.25
WINDOW_S = 1.0


def probe() -> float:
    """Seconds the reference loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        d = dict.fromkeys(range(1024), 0)
        s = 0
        t0 = perf_counter()
        for i in range(PROBE_ITERS):
            d[i & 1023] += i
            s += len({i, i + 1, i * 3})
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Probes taken during a timed loop, and the scale they give each
    operation."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def tick(self) -> None:
        """Probe if none was taken in the last ``EVERY_S``."""
        now = perf_counter()
        if not self.at or now - self.at[-1] >= EVERY_S:
            self.took.append(probe())
            self.at.append(perf_counter())

    def scale(self, start: float, end: float) -> float:
        """``REF_S`` over the median probe within ``WINDOW_S`` of the
        interval, or the nearest probe if none is that close."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:
            lo = min(max(lo - 1, 0), len(self.at) - 1)
            hi = lo + 1
        return REF_S / statistics.median(self.took[lo:hi])
