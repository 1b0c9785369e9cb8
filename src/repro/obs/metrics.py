"""The log-bucketed histogram every live instrument records into.

Values are whatever the caller observes -- in a fabric, durations read
off ``loop.now``, the simulator's virtual clock, never the wall clock --
so recorded latencies are the *modeled* latencies the paper's figures
plot.  A histogram schedules no events, draws no randomness and never
touches the loop: recording into one cannot perturb a simulation's
interleavings (the golden-trace equivalence test pins this).
"""

from __future__ import annotations

import math
from typing import Any, Dict

__all__ = ["Histogram"]


class Histogram:
    """A log-bucketed histogram with quantile estimates.

    Buckets are geometric: bucket ``i`` holds observations in
    ``(least * growth**(i-1), least * growth**i]``; everything at or
    below ``least`` (including zero) lands in the underflow bucket.
    The defaults (1 ns floor, x4 growth) span nanoseconds to hours in
    ~22 buckets, plenty for simulated-latency distributions.

    Quantiles are read from the cumulative bucket counts and reported
    as the geometric midpoint of the winning bucket, so a percentile is
    accurate to one growth factor -- the standard log-histogram
    trade-off (HdrHistogram, Prometheus native histograms).
    """

    __slots__ = ("name", "least", "growth", "count", "total",
                 "min", "max", "_log_growth", "_underflow", "_buckets")

    def __init__(self, name: str, least: float = 1e-9, growth: float = 4.0) -> None:
        if least <= 0 or growth <= 1:
            raise ValueError("histogram needs least > 0 and growth > 1")
        self.name = name
        self.least = least
        self.growth = growth
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._log_growth = math.log(growth)
        self._underflow = 0
        self._buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= self.least:
            self._underflow += 1
            return
        index = int(math.ceil(math.log(value / self.least) / self._log_growth - 1e-12))
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def percentile(self, q: float) -> float:
        """Estimated value at quantile ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        if rank <= self._underflow:
            # Everything down here is <= least; report the observed
            # floor, which is exact.
            return self.min if self.min < self.least else self.least
        running = self._underflow
        for index in sorted(self._buckets):
            running += self._buckets[index]
            if rank <= running:
                upper = self.least * self.growth ** index
                lower = upper / self.growth
                mid = math.sqrt(lower * upper)
                # Never report outside the observed range.
                return min(max(mid, self.min), self.max)
        return self.max

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }
