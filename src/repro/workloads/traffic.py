"""Heavy-tailed flow sizes and Poisson arrivals.

Data-center flow size distributions are famously Pareto-like: most
flows tiny, most bytes in elephants.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

__all__ = ["pareto_flow_bits", "poisson_arrivals"]


def pareto_flow_bits(
    rng: random.Random,
    mean_bits: float = 8e6,
    shape: float = 1.3,
    cap_bits: float = 8e10,
) -> float:
    """A heavy-tailed flow size with the requested mean.

    Pareto with shape alpha > 1: mean = xm * alpha / (alpha - 1), so we
    back out xm from the requested mean and cap the extreme tail.
    """
    if shape <= 1.0:
        raise ValueError("shape must exceed 1 for a finite mean")
    xm = mean_bits * (shape - 1) / shape
    u = rng.random()
    size = xm / (u ** (1.0 / shape))
    return min(size, cap_bits)


def poisson_arrivals(
    rng: random.Random, rate_per_s: float, until_s: float
) -> Iterator[float]:
    """Arrival times of a Poisson process on [0, until_s)."""
    if rate_per_s <= 0:
        return
    t = 0.0
    while True:
        t += rng.expovariate(rate_per_s)
        if t >= until_s:
            return
        yield t
