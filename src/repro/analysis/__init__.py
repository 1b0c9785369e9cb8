"""Result analysis: percentiles, tail fractions, table rendering."""

from .. import _lazy_namespace

__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    ".cdf": ("percentile", "fraction_above"),
    ".tables": ("render_table", "render_series"),
})
