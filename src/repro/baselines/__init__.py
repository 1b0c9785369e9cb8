"""The baseline the paper compares against: Ethernet with STP."""

from .. import _lazy_namespace

__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    ".stp": ("StpBridge", "L2Host", "L2Frame", "Bpdu", "STP_DEFAULTS"),
})
