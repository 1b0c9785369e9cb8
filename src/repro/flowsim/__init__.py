"""Fluid flow-level bandwidth simulation (max-min fair sharing)."""

from .. import _lazy_namespace

__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    ".maxmin": ("max_min_rates", "FairnessError"),
    ".network": ("FlowNet",),
    ".simulator": (
        "Flow",
        "FluidReport",
        "FluidSimulator",
        "PathPolicy",
        "SingleShortestPolicy",
        "HashedKPathPolicy",
        "RebalancingKPathPolicy",
        "ThroughputSeries",
    ),
    ".policies": ("SprayKPathPolicy", "EcnAwareKPathPolicy"),
})
