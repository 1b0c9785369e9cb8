"""Discrete-event network emulator (the paper's Mininet-style substrate)."""

from .events import EventHandle, EventLoop, SimulationError
from .channel import Channel, ChannelEnd, DEFAULT_DETECTION_DELAY
from .device import Device
from .network import HOST_NIC_PORT, LinkSpec, Network
from .trace import PerfCounters, TraceEvent, Tracer

__all__ = [
    "PerfCounters",
    "EventLoop",
    "EventHandle",
    "SimulationError",
    "Channel",
    "ChannelEnd",
    "DEFAULT_DETECTION_DELAY",
    "Device",
    "Network",
    "LinkSpec",
    "HOST_NIC_PORT",
    "Tracer",
    "TraceEvent",
]
