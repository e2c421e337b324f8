"""Timing normalized for the speed of the host.

On the shared virtual machine this benchmark was built on, one vCPU runs
20-40% slower for periods of seconds to tens of seconds. The other vCPU
drifts independently, and steal time is about 1%. So a raw wall time, or a
probe on the other core, cannot tell a program change from a slow host.
:class:`SpeedClock` samples the speed of the measuring thread while it
works. About every ``PERIOD_S`` an interval timer (``SIGALRM``) runs a
fixed pure-Python kernel. :meth:`SpeedClock.seconds` then turns a wall
interval into reference seconds. Each stretch of work between two samples
is divided by the local slowdown: the rolling median of the kernel's time
over ``WINDOW`` samples, relative to ``NOMINAL_S``. The samples' own time
is left out.

Over a run this cut the spread of the timings between runs from 17-33% to
a few percent. For short intervals in a block of cache-heavy work (the
churn bootstrap) it helps less, because the kernel then reads the cache
state the work left behind as well as the host's speed.

The kernel touches no program state, so a run under the clock computes
exactly what a run without it does.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

#: Median kernel time during benchmark runs on the 2-vCPU Intel Xeon
#: (2.0 GHz) virtual machine the baseline was recorded on, so reference
#: seconds are about wall seconds there.
NOMINAL_S = 9.5e-5
PERIOD_S = 0.025
WINDOW = 21


_SLOTS = [0] * 64


def _kernel() -> None:
    # allocates no garbage-collected object, so sampling cannot move the
    # program's garbage collections (nor its peak memory)
    acc = 0
    for i in range(600):
        acc += i * i
        _SLOTS[i & 63] = acc


class SpeedClock:
    """Calibration samples taken while the enclosed work runs."""

    def __init__(self):
        self.stamps: list[float] = []
        self.kernel_s: list[float] = []
        self.cost_s: list[float] = []
        self._factors: list[float] | None = None

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        _kernel()
        mid = time.perf_counter()
        self.stamps.append(start)
        self.kernel_s.append(mid - start)
        self.cost_s.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def running(self):
        """Sample the thread's speed for the duration of the block."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._factors = None

    def _slowdown(self) -> list[float]:
        if self._factors is None or len(self._factors) != len(self.stamps):
            half = WINDOW // 2
            k = self.kernel_s
            self._factors = [
                statistics.median(k[max(0, i - half): i + half + 1]) / NOMINAL_S
                for i in range(len(k))
            ]
        return self._factors

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of work between two ``perf_counter`` readings."""
        if not self.stamps:
            return end - start
        slowdown = self._slowdown()
        last = len(self.stamps) - 1
        k = bisect.bisect_left(self.stamps, start)
        total, cursor = 0.0, start
        while k <= last and self.stamps[k] < end:
            total += (self.stamps[k] - cursor) / slowdown[k]
            cursor = min(end, self.stamps[k] + self.cost_s[k])
            k += 1
        return total + max(0.0, end - cursor) / slowdown[min(k, last)]
