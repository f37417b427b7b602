"""Machine speed, from a fixed pure-Python kernel timed next to the calls.

On a shared host the same code runs up to 1.8 times faster or slower from one
minute to the next, with every piece of code sped up or slowed down alike.
Over 150 s of one repeated library call, its 2-second medians spread by 0.30
of their median (quartile distance) while their ratio to this kernel's time
(run three times as long) spread by 0.034.  So every time the benchmark
reports is a wall time rescaled to the reference speed: multiplied by
NOMINAL_S over what the kernel took at about the same moment.  The kernel uses no library code, so no change to the
library can move it, and it runs with the collector off, so the library's
heap cannot slow it either.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

NOMINAL_S = 0.0003  # the kernel's time at reference speed
# One kernel run before any call made at least PERIOD_S after the last run, so
# that a call of 10 ms or more is bracketed by runs of its own: the speed can
# drop for a fraction of a second in a fast spell, and a coarser sampling left
# the calls made in such drops in the tail, unrescaled.  About 3% of the time.
PERIOD_S = 0.01
NEAREST = 3  # a call is rescaled by the median of this many nearest samples


def kernel() -> int:
    """Dictionary and integer work, like the automata's inner loops."""
    d = {}
    x = 0
    for i in range(1000):
        d[i] = (i * 7 + x) & 1023
        x ^= d.get(i - 1, 0)
    return x


def time_kernel() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor_now(samples: int = 5) -> float:
    """Reference seconds per wall second, from kernel runs made now."""
    return NOMINAL_S / statistics.median(time_kernel() for _ in range(samples))


class SpeedLog:
    """Kernel timings spread over a run, sampled every PERIOD_S of wall time."""

    def __init__(self):
        self.times: list[float] = []  # when each sample was taken
        self.kernel_s: list[float] = []
        self._next = 0.0

    def tick(self, now: float) -> None:
        """Sample the kernel if PERIOD_S has passed since the last sample."""
        if now >= self._next:
            self.times.append(now)
            self.kernel_s.append(time_kernel())
            self._next = now + PERIOD_S

    def factor(self, t: float) -> float:
        """Reference seconds per wall second at moment t."""
        i = bisect.bisect_left(self.times, t)
        lo = max(0, min(i - NEAREST // 2, len(self.times) - NEAREST))
        return NOMINAL_S / statistics.median(self.kernel_s[lo : lo + NEAREST])

    def median_kernel_ms(self) -> float:
        return statistics.median(self.kernel_s) * 1e3
