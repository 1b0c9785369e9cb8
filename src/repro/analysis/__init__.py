"""Result analysis: CDFs, percentiles, table rendering."""

from .cdf import DistSummary, empirical_cdf, fraction_above, percentile, summarize
from .tables import render_cdf_deciles, render_series, render_table

__all__ = [
    "empirical_cdf",
    "percentile",
    "fraction_above",
    "summarize",
    "DistSummary",
    "render_table",
    "render_series",
    "render_cdf_deciles",
]
