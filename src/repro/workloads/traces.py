"""Empirical flow-size distributions from published datacenter traces.

The repro guideline for missing production traces is to synthesize the
closest equivalent.  Two canonical distributions from the DCTCP /
pFabric literature are embedded as CDFs:

* **web-search** (Alizadeh et al., SIGCOMM 2010): query/response
  traffic, flows from a few KB to tens of MB, bytes dominated by the
  large flows;
* **data-mining** (Greenberg et al., VL2): extremely heavy-tailed,
  most flows under 10 KB, elephants up to 1 GB.

:func:`sample_flow_bits` inverse-transform samples a CDF;
:class:`repro.workloads.TraceReplay` turns a distribution + arrival
rate + traffic matrix into a flow program.
"""

from __future__ import annotations

import bisect
import random
from typing import Sequence, Tuple

__all__ = [
    "WEB_SEARCH_CDF",
    "DATA_MINING_CDF",
    "sample_flow_bits",
    "mean_flow_bits",
]

#: (flow size in bytes, cumulative probability).  Piecewise-linear in
#: log-ish steps, per the published figures.
WEB_SEARCH_CDF: Tuple[Tuple[float, float], ...] = (
    (6e3, 0.15),
    (13e3, 0.2),
    (19e3, 0.3),
    (33e3, 0.4),
    (53e3, 0.53),
    (133e3, 0.6),
    (667e3, 0.7),
    (1.33e6, 0.8),
    (4e6, 0.9),
    (8e6, 0.97),
    (30e6, 1.0),
)

DATA_MINING_CDF: Tuple[Tuple[float, float], ...] = (
    (100, 0.1),
    (180, 0.2),
    (250, 0.3),
    (560, 0.4),
    (900, 0.5),
    (1.1e3, 0.6),
    (10e3, 0.7),
    (80e3, 0.8),
    (1e6, 0.9),
    (10e6, 0.95),
    (100e6, 0.98),
    (1e9, 1.0),
)


def sample_flow_bits(
    rng: random.Random, cdf: Sequence[Tuple[float, float]]
) -> float:
    """Inverse-transform sample a flow size (bits) from a byte CDF."""
    u = rng.random()
    probs = [p for _size, p in cdf]
    index = bisect.bisect_left(probs, u)
    if index >= len(cdf):
        index = len(cdf) - 1
    size_hi, p_hi = cdf[index]
    if index == 0:
        size_lo, p_lo = (0.0, 0.0)
    else:
        size_lo, p_lo = cdf[index - 1]
    if p_hi == p_lo:
        size = size_hi
    else:
        frac = (u - p_lo) / (p_hi - p_lo)
        size = size_lo + frac * (size_hi - size_lo)
    return max(size, 64.0) * 8


def mean_flow_bits(cdf: Sequence[Tuple[float, float]]) -> float:
    """Analytic mean of the piecewise-linear distribution, in bits."""
    total = 0.0
    prev_size, prev_p = 0.0, 0.0
    for size, p in cdf:
        total += (p - prev_p) * (prev_size + size) / 2
        prev_size, prev_p = size, p
    return total * 8

