"""Simulated-clock-aware metrics primitives.

Log-bucketed histograms and span timing contexts, collected under a
hierarchical :class:`MetricsRegistry` with dot-separated names.  Everything time-related reads the registry's
``clock`` callable -- in a fabric that is ``loop.now``, the simulator's
virtual clock, never the wall clock -- so recorded latencies are the
*modeled* latencies the paper's figures plot.

None of these objects schedules events, draws randomness, or touches
the loop: attaching a registry to a running simulation cannot perturb
its interleavings (the golden-trace equivalence test pins this).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Histogram", "Span", "MetricsRegistry"]

Clock = Callable[[], float]


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

    def bucket_upper_bound(self, index: int) -> float:
        return self.least * self.growth ** index

    def buckets(self) -> List[Tuple[float, int]]:
        """(upper bound, cumulative count) pairs, ascending -- the
        Prometheus ``le`` series, without the trailing +Inf."""
        out: List[Tuple[float, int]] = [(self.least, self._underflow)]
        running = self._underflow
        for index in sorted(self._buckets):
            running += self._buckets[index]
            out.append((self.bucket_upper_bound(index), running))
        return out

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
                upper = self.bucket_upper_bound(index)
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


class Span:
    """A timing context driven by the registry clock.

    Spans nest: entering a span while another is open names it
    ``outer/inner``, and each distinct path accumulates into its own
    duration histogram (``span.<path>.s``).  Exceptions still record
    the duration and restore the stack.
    """

    __slots__ = ("registry", "name", "path", "start", "elapsed")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        if "/" in name:
            raise ValueError("span names may not contain '/'")
        self.registry = registry
        self.name = name
        self.path: Optional[str] = None
        self.start = 0.0
        self.elapsed: Optional[float] = None

    def __enter__(self) -> "Span":
        stack = self.registry._span_stack
        self.path = (stack[-1] + "/" + self.name) if stack else self.name
        stack.append(self.path)
        self.start = self.registry.now()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed = self.registry.now() - self.start
        stack = self.registry._span_stack
        assert stack and stack[-1] == self.path, "span stack corrupted"
        stack.pop()
        self.registry.histogram(f"span.{self.path}.s").observe(self.elapsed)


class MetricsRegistry:
    """Hierarchical metric store keyed by dotted names.

    ``clock`` supplies the current (simulated) time for spans; a fabric
    passes ``lambda: loop.now``.  Metric objects are created on first
    use and are plain attribute bags -- callers on hot paths hold a
    direct reference and pay no lookup.
    """

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._clock: Clock = clock if clock is not None else (lambda: 0.0)
        self._metrics: Dict[str, Any] = {}
        self._span_stack: List[str] = []

    def now(self) -> float:
        return self._clock()

    # ------------------------------------------------------------------
    # metric accessors (get-or-create)

    def histogram(self, name: str, least: float = 1e-9, growth: float = 4.0) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Histogram(name, least=least, growth=growth)
        return metric

    def span(self, name: str) -> Span:
        return Span(self, name)

    # ------------------------------------------------------------------
    # introspection / export

    def __iter__(self) -> Iterator[Tuple[str, Any]]:
        for name in sorted(self._metrics):
            yield name, self._metrics[name]

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Optional[Any]:
        return self._metrics.get(name)

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        return {name: metric.as_dict() for name, metric in self}
