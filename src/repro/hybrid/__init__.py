"""Hybrid-fidelity dataplane: fluid flows by default, packet-level
zoom on a region of interest (see DESIGN.md, "Hybrid-fidelity
dataplane")."""

from .. import _lazy_namespace

__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    ".engine": ("HybridEngine", "build_engine"),
    ".packet_region": ("PacketRegion", "ZoomFlow"),
    ".roi": ("RegionOfInterest",),
})
