"""Result analysis: CDFs, percentiles, table rendering."""

from .. import _lazy_namespace

__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    ".cdf": ("empirical_cdf", "percentile", "fraction_above", "summarize", "DistSummary"),
    ".tables": ("render_table", "render_series", "render_cdf_deciles"),
})
