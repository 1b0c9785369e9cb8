"""Invariants the chaos runner checks while faults are in flight.

Two classes of check:

* **Continuous** (every ``ChaosRunner.CHECK_INTERVAL_S`` of the run): facts
  that must hold at *every* instant regardless of propagation delay --
  cached tag routes are loop-free and structurally sound, and no agent
  keeps a cached path crossing a port *it itself* has marked dead
  (stage-1 invalidation is atomic inside the news handler, so a
  violation here is a real cache-coherence bug, not staleness).
* **Quiesce** (after the timeline ends and the loop drains): facts
  that must hold once the two-stage failure protocol has converged --
  no cached path transits a physically-down port, and every host pair
  that is still physically connected can exchange traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from ..core.host_agent import HostAgent
from ..core.pathcache import CachedPath
from ..netsim.network import Network
from ..topology.graph import Topology

__all__ = [
    "Violation",
    "check_loop_free",
    "check_structural",
    "check_cache_coherence",
    "check_no_dead_paths",
    "continuous_invariants",
    "down_ports",
    "residual_topology",
]


@dataclass(frozen=True)
class Violation:
    time: float
    invariant: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.time:.6f}] {self.invariant} @ {self.subject}: {self.detail}"


def _cached_paths(agent: HostAgent) -> Iterable[Tuple[str, str, CachedPath]]:
    for dst in agent.path_table.destinations():
        entry = agent.path_table.entry(dst)
        if entry is None:
            continue
        for path in entry.primaries:
            yield dst, "primary", path
        if entry.backup is not None:
            yield dst, "backup", entry.backup


def _transit_hops(path: CachedPath) -> Set[Tuple[str, int]]:
    """A path's hops minus the terminal host-attachment hop.

    ``TopoCache._apply_dead_ports`` deliberately keeps dead *host
    attachment* ports cached ("the destination is gone, which the
    PathTable handles by failing sends"), so coherence invariants only
    apply to switch-switch transit hops.
    """
    hops = set(zip(path.switches, path.tags))
    if path.switches:
        hops.discard((path.switches[-1], path.tags[-1]))
    return hops


def check_loop_free(agents: Dict[str, HostAgent], now: float) -> List[Violation]:
    """No cached tag route visits the same switch twice.  A looped
    route cannot forward forever (each hop eats a tag) but it wastes
    the fabric and signals a corrupted TopoCache fragment."""
    out = []
    for name, agent in agents.items():
        for dst, role, path in _cached_paths(agent):
            if len(set(path.switches)) != len(path.switches):
                out.append(Violation(
                    now, "loop-free", name,
                    f"{role} path to {dst} revisits a switch: {path.switches}",
                ))
    return out


def check_structural(agents: Dict[str, HostAgent], now: float) -> List[Violation]:
    """Tag count must match the switch sequence (Section 5.1: one tag
    per hop plus the implicit ø)."""
    out = []
    for name, agent in agents.items():
        for dst, role, path in _cached_paths(agent):
            if len(path.tags) != len(path.switches):
                out.append(Violation(
                    now, "structural", name,
                    f"{role} path to {dst}: {len(path.tags)} tags for "
                    f"{len(path.switches)} switches",
                ))
    return out


def check_cache_coherence(agents: Dict[str, HostAgent], now: float) -> List[Violation]:
    """An agent's PathTable must never contradict its own TopoCache:
    any (switch, port) the agent has marked dead must already be
    invalidated out of every cached path (this is exactly what
    ``PathTable.invalidate_port`` guarantees -- the satellite fixes in
    this PR keep it true under remapping)."""
    out = []
    for name, agent in agents.items():
        dead = agent.topo_cache.dead_ports
        if not dead:
            continue
        for dst, role, path in _cached_paths(agent):
            stale = dead & _transit_hops(path)
            if stale:
                out.append(Violation(
                    now, "cache-coherence", name,
                    f"{role} path to {dst} uses dead port(s) {sorted(stale)}",
                ))
    return out


def continuous_invariants(agents: Dict[str, HostAgent], now: float) -> List[Violation]:
    return (
        check_loop_free(agents, now)
        + check_structural(agents, now)
        + check_cache_coherence(agents, now)
    )


# ----------------------------------------------------------------------
# quiesce-time checks against physical ground truth


def down_ports(network: Network) -> Set[Tuple[str, int]]:
    """Every (switch, port) that cannot currently carry a frame:
    ports of down channels and every port of a powered-off switch."""
    dead: Set[Tuple[str, int]] = set()
    for link in network.topology.links:
        channel = network.link_channel(
            link.a.switch, link.a.port, link.b.switch, link.b.port
        )
        if not channel.up:
            dead.add((link.a.switch, link.a.port))
            dead.add((link.b.switch, link.b.port))
    for name, device in network.switches.items():
        if not device.powered:
            for port in range(1, network.topology.num_ports(name) + 1):
                dead.add((name, port))
    return dead


def residual_topology(network: Network) -> Topology:
    """Ground truth minus everything currently failed: the topology a
    perfect oracle would report right now."""
    residual = network.topology.copy()
    for name, device in network.hosts.items():
        if not device.powered or not network.host_channel(name).up:
            if residual.has_host(name):
                residual.remove_host(name)
    for link in network.topology.links:
        channel = network.link_channel(
            link.a.switch, link.a.port, link.b.switch, link.b.port
        )
        if not channel.up and residual.has_link(
            link.a.switch, link.a.port, link.b.switch, link.b.port
        ):
            residual.remove_link(
                link.a.switch, link.a.port, link.b.switch, link.b.port
            )
    for name, device in network.switches.items():
        if not device.powered and residual.has_switch(name):
            for host in list(residual.hosts_on(name)):
                residual.remove_host(host)
            residual.remove_switch(name)
    return residual


def check_no_dead_paths(
    agents: Dict[str, HostAgent], network: Network, now: float
) -> List[Violation]:
    """At quiesce every agent must have purged paths over down links:
    stage 1 floods the news, stage 2 patches the view, and the
    satellite fixes make invalidation actually stick."""
    dead = down_ports(network)
    if not dead:
        return []
    out = []
    for name, agent in agents.items():
        device = network.hosts.get(name)
        if device is not None and not device.powered:
            continue  # a dead host's cache is unreachable, not wrong
        for dst, role, path in _cached_paths(agent):
            stale = dead & _transit_hops(path)
            if stale:
                out.append(Violation(
                    now, "no-dead-paths", name,
                    f"{role} path to {dst} still crosses down port(s) "
                    f"{sorted(stale)}",
                ))
    return out
