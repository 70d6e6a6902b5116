"""Times scaled to a reference host speed.

The hosts this benchmark runs on switch between speed regimes up to 1.8x
apart; a regime may flip within a fraction of a second or hold for
minutes, and identical work slows down with it.  :class:`HostSpeed` runs a
fixed pure-Python probe (0.2-0.45 ms) now and then between pieces of
measured work and converts a measured interval into *reference seconds*:
the interval times ``PROBE_REF_S`` over the mean time of the probes near
it.  The mean, not the median, because the mean of the probes around an
interval weighs the regimes about as the interval saw them.  A regime
that slows the program slows the probes next to it about as much, so the
ratio stays put while a change to the program moves it.

The probe is the benchmark's own code and never changes with the
program.  Probes take about 1% of a run and are never inside a measured
interval.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List

#: Probe time that defines a reference second, about the probe's time in
#: the fast regime of a 2-vCPU KVM guest (220 us, against 380-450 us in
#: its slow regime).  Reported times are what the work would take on a
#: host that runs the probe in this time.
PROBE_REF_S = 250e-6
#: Probes within this many seconds of an interval set its scale ...
NEAR_S = 0.5
#: ... and at least this many of the nearest ones.
NEAREST = 9


class _Slot:
    __slots__ = ("key", "items")

    def __init__(self, key: int) -> None:
        self.key = key
        self.items = [key]


def _probe_work() -> int:
    """Allocation, attribute and dict traffic, like the program's."""
    table = {}
    for i in range(600):
        slot = _Slot(i)
        table[i % 37] = slot.items
        slot.key += len(table)
    return len(sorted(table))


class HostSpeed:
    """Probe times along one run, and the scale they give an interval."""

    def __init__(self) -> None:
        self._at: List[float] = []
        self._took: List[float] = []

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            started = time.perf_counter()
            _probe_work()
            self._at.append(started)
            self._took.append(time.perf_counter() - started)

    def ref_s(self, start: float, end: float) -> float:
        """The interval ``[start, end]`` in reference seconds."""
        at = self._at
        if not at:
            raise RuntimeError("no probe was taken")
        low = bisect.bisect_left(at, start - NEAR_S)
        high = bisect.bisect_right(at, end + NEAR_S)
        while high - low < min(NEAREST, len(at)):
            # Widen towards the nearer of the two neighbouring probes.
            if low == 0:
                high += 1
            elif high == len(at) or start - at[low - 1] <= at[high] - end:
                low -= 1
            else:
                high += 1
        return (end - start) * PROBE_REF_S / statistics.fmean(
            self._took[low:high])
