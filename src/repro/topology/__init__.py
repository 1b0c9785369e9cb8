"""Topology model and generators for DumbNet fabrics."""

from .. import _lazy_namespace

__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    ".graph": ("Topology", "TopologyError", "Link", "PortRef", "HostAttachment"),
    ".fattree": ("fat_tree",),
    ".leafspine": ("leaf_spine", "paper_testbed"),
    ".cube": ("cube", "cube_switch_name", "corner_switch", "center_switch"),
    ".random_topo": ("jellyfish",),
    ".samples": ("figure1", "line", "ring"),
    ".serialization": ("topology_to_dict", "topology_from_dict", "dumps", "loads"),
})
