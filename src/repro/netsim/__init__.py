"""Discrete-event network emulator (the paper's Mininet-style substrate)."""

from .. import _lazy_namespace

__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    ".events": ("EventLoop", "EventHandle", "SimulationError"),
    ".channel": ("Channel", "ChannelEnd", "DEFAULT_DETECTION_DELAY"),
    ".device": ("Device",),
    ".network": ("Network", "LinkSpec", "HOST_NIC_PORT"),
    ".trace": ("Tracer", "TraceEvent"),
})
