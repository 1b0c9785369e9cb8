"""Random regular (jellyfish-style) topologies.

The paper stresses that DumbNet's host-based control plane tolerates
irregular topologies (Section 4.1: "can tolerate mis-configurations in
the underlying physical network"), so the benches and tests run
discovery and path-graph generation over random graphs too.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from .graph import Topology, TopologyError

__all__ = ["jellyfish"]


def jellyfish(
    num_switches: int,
    switch_degree: int,
    hosts_per_switch: int = 1,
    num_ports: Optional[int] = None,
    seed: int = 0,
) -> Topology:
    """Random regular graph built with the jellyfish link-swap trick.

    Repeatedly connects random pairs of free ports; when it stalls, it
    breaks an existing link to free compatible ports.  The result is a
    connected, nearly-regular random graph.
    """
    if num_switches < 2:
        raise ValueError("need at least two switches")
    if switch_degree >= num_switches:
        raise ValueError("degree must be below switch count")
    rng = random.Random(seed)
    ports = num_ports if num_ports is not None else switch_degree + hosts_per_switch
    if ports < switch_degree + hosts_per_switch:
        raise ValueError("not enough ports for degree plus hosts")

    topo = Topology()
    names = [f"j{i}" for i in range(num_switches)]
    for name in names:
        topo.add_switch(name, ports)

    free = {name: list(range(1, switch_degree + 1)) for name in names}
    edges: List[Tuple[str, str]] = []

    def connect(a: str, b: str) -> None:
        topo.add_link(a, free[a].pop(), b, free[b].pop())
        edges.append((a, b))

    def linked(a: str, b: str) -> bool:
        return bool(topo.links_between(a, b))

    stall = 0
    while True:
        candidates = [n for n in names if free[n]]
        if len(candidates) < 2:
            break
        a, b = rng.sample(candidates, 2)
        if a != b and not linked(a, b):
            connect(a, b)
            stall = 0
            continue
        stall += 1
        if stall > 50 * num_switches:
            # Swap: pick an existing link (x, y) with x,y not adjacent to
            # a stuck node n, break it, and connect n to both ends.
            stuck = [n for n in candidates if len(free[n]) >= 2]
            if not stuck or not edges:
                break
            n = rng.choice(stuck)
            rng.shuffle(edges)
            for i, (x, y) in enumerate(edges):
                if n in (x, y) or linked(n, x) or linked(n, y):
                    continue
                link = topo.links_between(x, y)[0]
                topo.remove_link(link.a.switch, link.a.port, link.b.switch, link.b.port)
                free[x].append(link.a.port if link.a.switch == x else link.b.port)
                free[y].append(link.b.port if link.b.switch == y else link.a.port)
                edges.pop(i)
                connect(n, x)
                connect(n, y)
                break
            stall = 0

    _ensure_connected(topo, names, free, rng)
    for name in names:
        for h in range(hosts_per_switch):
            topo.add_host(f"h_{name}_{h}", name, switch_degree + h + 1)
    return topo


def _ensure_connected(topo, names, free, rng) -> None:
    """Patch disconnected components together using leftover ports."""
    while not topo.is_connected():
        comps = _components(topo, names)
        if len(comps) < 2:
            break
        a = _any_free(comps[0], free)
        b = _any_free(comps[1], free)
        if a is None or b is None:
            # Steal a port by removing one intra-component link.
            comp = comps[0] if a is None else comps[1]
            victim = next(
                (sw for sw in comp for _ in topo.links_of(sw)), None
            )
            if victim is None:
                raise TopologyError("cannot connect random topology")
            link = next(iter(topo.links_of(victim)))
            topo.remove_link(link.a.switch, link.a.port, link.b.switch, link.b.port)
            free[link.a.switch].append(link.a.port)
            free[link.b.switch].append(link.b.port)
            continue
        topo.add_link(a[0], a[1], b[0], b[1])
        free[a[0]].remove(a[1])
        free[b[0]].remove(b[1])


def _components(topo, names) -> List[List[str]]:
    seen = set()
    comps = []
    for name in names:
        if name in seen:
            continue
        comp = [name]
        seen.add(name)
        stack = [name]
        while stack:
            sw = stack.pop()
            for nbr in topo.neighbors(sw):
                if nbr not in seen:
                    seen.add(nbr)
                    comp.append(nbr)
                    stack.append(nbr)
        comps.append(comp)
    return comps


def _any_free(comp, free):
    for sw in comp:
        if free[sw]:
            return (sw, free[sw][0])
    return None
