"""Capacity graph for the fluid flow simulator.

Wraps a :class:`~repro.topology.Topology` into directed capacitated
links: each wired switch port is a transmit link (full duplex -- the
two directions of a cable are independent), and each host NIC has an
uplink.  Per-port capacity overrides express experiments like Figure 13
("we limit spine switch port speed to 500 Mbps").
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..topology.graph import HostAttachment, PortRef, Topology, TopologyError

__all__ = ["FlowNet"]

LinkId = Tuple

#: Route-cache miss sentinel (None is a legitimate cached value).
_UNSET = object()


class FlowNet:
    """Directed capacities + route-to-links translation + failures."""

    def __init__(
        self,
        topology: Topology,
        link_bps: float = 10e9,
        host_bps: float = 10e9,
        port_overrides: Optional[Mapping[Tuple[str, int], float]] = None,
        switch_overrides: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.topology = topology
        self.capacities: Dict[LinkId, float] = {}
        #: Ports whose cable is down (both endpoints of a failed link).
        self._down_ports: Set[Tuple[str, int]] = set()
        #: Bumped whenever a cable actually changes state.
        self.link_epoch = 0
        #: Yen-enumeration cache (the wiring never changes, only state).
        self._path_cache: Dict[Tuple[str, str, int], List[List[str]]] = {}
        #: (src host, dst host, k) -> alive candidates; valid for one
        #: ``link_epoch`` (emptied when it moves).
        self._alive_cache: Dict[Tuple[str, str, int], List[List[str]]] = {}
        #: Tag-walk cache: (src, path, dst) -> static link id list.
        self._route_cache: Dict[Tuple, Optional[List[LinkId]]] = {}
        port_overrides = port_overrides or {}
        switch_overrides = switch_overrides or {}

        for link in topology.links:
            for end in link.endpoints:
                bps = port_overrides.get(
                    (end.switch, end.port),
                    switch_overrides.get(end.switch, link_bps),
                )
                self.capacities[("tx", end.switch, end.port)] = bps
        for host in topology.hosts:
            ref = topology.host_port(host)
            self.capacities[("htx", host)] = host_bps
            # The switch's host-facing port is the host's downlink.
            bps = port_overrides.get(
                (ref.switch, ref.port),
                switch_overrides.get(ref.switch, host_bps),
            )
            self.capacities[("tx", ref.switch, ref.port)] = bps

    # ------------------------------------------------------------------
    # failures

    def fail_link(self, sw_a: str, port_a: int, sw_b: str, port_b: int) -> None:
        self._set_link_state(sw_a, port_a, sw_b, port_b, up=False)

    def restore_link(self, sw_a: str, port_a: int, sw_b: str, port_b: int) -> None:
        self._set_link_state(sw_a, port_a, sw_b, port_b, up=True)

    def _set_link_state(self, sw_a: str, port_a: int, sw_b: str, port_b: int, up: bool) -> None:
        if not self.topology.has_link(sw_a, port_a, sw_b, port_b):
            raise TopologyError(f"no link {sw_a}-{port_a} <-> {sw_b}-{port_b}")
        ports = {(sw_a, port_a), (sw_b, port_b)}
        is_up = ports.isdisjoint(self._down_ports)
        if is_up == up:
            return
        if up:
            self._down_ports -= ports
        else:
            self._down_ports |= ports
        self.link_epoch += 1
        self._alive_cache.clear()

    # ------------------------------------------------------------------
    # routes

    def route_links(
        self, src_host: str, switch_path: Sequence[str], dst_host: str
    ) -> Optional[List[LinkId]]:
        """Directed link ids a flow on this path occupies, or None if
        the path crosses a failed link.

        The tag walk itself is cached (the wiring is immutable);
        aliveness against the current failure set is checked per call.
        """
        key = (src_host, tuple(switch_path), dst_host)
        links = self._route_cache.get(key, _UNSET)
        if links is _UNSET:
            links = self._walk(src_host, switch_path, dst_host)
            self._route_cache[key] = links
        if links is None:
            return None
        if self._down_ports:
            for link in links:
                if link[0] == "tx" and (link[1], link[2]) in self._down_ports:
                    return None
        return links

    def _walk(
        self, src_host: str, switch_path: Sequence[str], dst_host: str
    ) -> Optional[List[LinkId]]:
        topo = self.topology
        try:
            tags = topo.encode_path(src_host, switch_path, dst_host)
        except TopologyError:
            return None
        links: List[LinkId] = [("htx", src_host)]
        current = topo.host_port(src_host).switch
        for tag in tags:
            links.append(("tx", current, tag))
            peer = topo.peer(current, tag)
            if isinstance(peer, PortRef):
                current = peer.switch
        return links

    def path_is_alive(self, src_host: str, switch_path: Sequence[str], dst_host: str) -> bool:
        return self.route_links(src_host, switch_path, dst_host) is not None

    def k_paths(self, src_host: str, dst_host: str, k: int) -> List[List[str]]:
        """k shortest alive switch paths between two hosts.

        The Yen enumeration is cached per switch pair (the topology
        itself never changes, only link state); the aliveness walk over
        its candidates is cached per host pair until a cable changes
        state.
        """
        memo = (src_host, dst_host, k)
        alive = self._alive_cache.get(memo)
        if alive is None:
            src_sw = self.topology.host_port(src_host).switch
            dst_sw = self.topology.host_port(dst_host).switch
            key = (src_sw, dst_sw, k)
            candidates = self._path_cache.get(key)
            if candidates is None:
                candidates = self.topology.k_shortest_switch_paths(src_sw, dst_sw, k * 2)
                self._path_cache[key] = candidates
            alive = [p for p in candidates if self.path_is_alive(src_host, p, dst_host)]
            if len(alive) == len(candidates):
                alive = candidates  # nothing filtered: share the Yen list
            self._alive_cache[memo] = alive
        return alive[:k]
