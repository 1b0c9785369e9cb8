"""Distribution statistics for the evaluation figures.

Figures 10 and 11(a) are CDFs; these helpers compute the summary
statistics (percentiles, tail fractions) EXPERIMENTS.md quotes.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["percentile", "fraction_above"]


def percentile(values: Sequence[float], p: float) -> float:
    """The p-th percentile (0..100), linear interpolation."""
    if not values:
        raise ValueError("percentile of empty data")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi or ordered[lo] == ordered[hi]:
        # The equality guard also avoids subnormal underflow: splitting
        # a denormal across the two interpolation terms rounds to 0.
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def fraction_above(values: Sequence[float], threshold: float) -> float:
    """What fraction of samples exceed a threshold (tail mass)."""
    if not values:
        return 0.0
    return sum(1 for v in values if v > threshold) / len(values)
