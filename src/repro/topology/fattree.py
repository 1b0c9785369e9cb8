"""k-ary fat-tree generator (Al-Fares style), used by Figure 8(a) and Table 2.

A k-ary fat-tree has k pods; each pod has k/2 edge and k/2 aggregation
switches; there are (k/2)^2 core switches; each edge switch hosts k/2
servers.  All switches have k ports.  Total switches: 5k^2/4.
"""

from __future__ import annotations

from typing import Optional

from .graph import Topology

__all__ = ["fat_tree"]


def fat_tree(k: int, hosts_per_edge: Optional[int] = None, num_ports: Optional[int] = None) -> Topology:
    """Build a k-ary fat-tree.

    ``k`` must be even.  ``hosts_per_edge`` defaults to k/2 (the full
    fat-tree); pass 0 to build a host-less fabric and attach hosts
    yourself.  ``num_ports`` can inflate the per-switch port count above
    ``k`` -- Figure 8(a) uses 64-port switches regardless of tree arity.
    """
    if k < 2 or k % 2:
        raise ValueError(f"fat-tree arity must be even and >= 2, got {k}")
    half = k // 2
    if hosts_per_edge is None:
        hosts_per_edge = half
    if hosts_per_edge > half:
        raise ValueError(f"at most {half} hosts per edge switch in a {k}-ary fat-tree")
    ports = num_ports if num_ports is not None else k
    if ports < k:
        raise ValueError(f"need at least {k} ports, got {ports}")

    topo = Topology()
    cores = [f"core{i}" for i in range(half * half)]
    for sw in cores:
        topo.add_switch(sw, ports)
    for pod in range(k):
        for i in range(half):
            topo.add_switch(f"agg{pod}_{i}", ports)
            topo.add_switch(f"edge{pod}_{i}", ports)
    # Core <-> aggregation.  Core switch (i, j) in an half x half grid
    # connects to aggregation switch i of every pod, on port pod+1.
    for i in range(half):
        for j in range(half):
            core = f"core{i * half + j}"
            for pod in range(k):
                # Aggregation switch ports: 1..half face the core.
                topo.add_link(core, pod + 1, f"agg{pod}_{i}", j + 1)
    # Aggregation <-> edge inside each pod.
    for pod in range(k):
        for i in range(half):
            agg = f"agg{pod}_{i}"
            for j in range(half):
                edge = f"edge{pod}_{j}"
                # agg ports half+1..k face the edges; edge ports 1..half face the aggs.
                topo.add_link(agg, half + j + 1, edge, i + 1)
    # Hosts on edge switches, ports half+1..
    for pod in range(k):
        for i in range(half):
            edge = f"edge{pod}_{i}"
            for h in range(hosts_per_edge):
                topo.add_host(f"h{pod}_{i}_{h}", edge, half + h + 1)
    return topo
