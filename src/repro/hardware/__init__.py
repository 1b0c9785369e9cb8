"""Calibrated hardware models: FPGA area and host stack costs."""

from .. import _lazy_namespace

__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    ".resources": (
        "HardwareResources",
        "dumbnet_switch_resources",
        "openflow_switch_resources",
        "reduction_factor",
        "DUMBNET_VERILOG_LINES",
    ),
    ".hostmodel": (
        "StackModel",
        "NATIVE",
        "NOOP_DPDK",
        "MPLS_ONLY",
        "DUMBNET",
        "ALL_STACKS",
        "throughput_bps",
    ),
    "..core.packet": ("DUMBNET_MTU",),
})
