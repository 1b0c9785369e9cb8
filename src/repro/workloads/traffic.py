"""Synthetic traffic matrices and flow-size distributions.

General-purpose generators used by tests and the load-balancing
experiments: permutation and all-to-all matrices, stride patterns,
hotspots, and heavy-tailed flow sizes (data-center flow size
distributions are famously Pareto-like: most flows tiny, most bytes in
elephants).
"""

from __future__ import annotations

import math
import random
from typing import Iterator, List, Sequence, Tuple

__all__ = [
    "permutation_pairs",
    "all_to_all_pairs",
    "stride_pairs",
    "hotspot_pairs",
    "pareto_flow_bits",
    "poisson_arrivals",
]


def permutation_pairs(
    hosts: Sequence[str], rng: random.Random
) -> List[Tuple[str, str]]:
    """A random permutation matrix: each host sends to exactly one other."""
    if len(hosts) < 2:
        return []
    dsts = list(hosts)
    # Sattolo's algorithm: a single cycle, so nobody maps to itself.
    for i in range(len(dsts) - 1, 0, -1):
        j = rng.randrange(i)
        dsts[i], dsts[j] = dsts[j], dsts[i]
    return list(zip(hosts, dsts))


def all_to_all_pairs(hosts: Sequence[str]) -> List[Tuple[str, str]]:
    return [(a, b) for a in hosts for b in hosts if a != b]


def stride_pairs(hosts: Sequence[str], stride: int) -> List[Tuple[str, str]]:
    """Host i sends to host (i + stride) mod n -- the classic fat-tree
    stress pattern."""
    n = len(hosts)
    if n < 2:
        return []
    stride = stride % n or 1
    return [(hosts[i], hosts[(i + stride) % n]) for i in range(n)]


def hotspot_pairs(
    hosts: Sequence[str], num_hot: int = 1, *, rng: random.Random
) -> List[Tuple[str, str]]:
    """Everyone sends to a few hot destinations (incast-style)."""
    if len(hosts) < 2:
        return []
    num_hot = max(1, min(num_hot, len(hosts) - 1))
    hot = rng.sample(list(hosts), num_hot)
    return [(src, dst) for dst in hot for src in hosts if src != dst]


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
