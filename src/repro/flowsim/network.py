"""Capacity graph for the fluid flow simulator.

Wraps a :class:`~repro.topology.Topology` into directed capacitated
links: each wired switch port is a transmit link (full duplex -- the
two directions of a cable are independent), and each host NIC has an
uplink.  Per-port capacity overrides express experiments like Figure 13
("we limit spine switch port speed to 500 Mbps").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..topology.graph import SSSPTree, Topology, TopologyError
from .maxmin import CapacityTable

if TYPE_CHECKING:
    from .simulator import Flow

__all__ = ["FlowNet"]

LinkId = Tuple
#: One alive candidate: (switch path, its directed link ids).
Candidate = Tuple[List[str], Tuple[LinkId, ...]]

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
        #: Ports whose cable is down (both endpoints of a failed link).
        self._down_ports: Set[Tuple[str, int]] = set()
        #: Bumped whenever a cable actually changes state.
        self.link_epoch = 0
        #: Yen-enumeration cache (the wiring never changes, only state):
        #: (src switch, dst switch, paths asked for) -> switch paths.
        self._path_cache: Dict[Tuple[str, str, int], List[List[str]]] = {}
        #: (src switch, topo_version) -> the SSSP tree Yen's first path
        #: is walked back through: one BFS per source switch, not one
        #: Dijkstra per pair.
        self._trees: Dict[Tuple[str, int], SSSPTree] = {}
        #: (src host, dst host, k) -> the first k alive candidates, each
        #: with its links; valid for one ``link_epoch`` (emptied when it
        #: moves).
        self._alive_cache: Dict[Tuple[str, str, int], Tuple[Candidate, ...]] = {}
        #: Tag-walk cache: (src, path, dst) -> static link id tuple.
        self._route_cache: Dict[Tuple, Optional[Tuple[LinkId, ...]]] = {}
        port_overrides = port_overrides or {}
        switch_overrides = switch_overrides or {}

        capacities: Dict[LinkId, float] = {}
        for link in topology.links:
            for end in link.endpoints:
                bps = port_overrides.get(
                    (end.switch, end.port),
                    switch_overrides.get(end.switch, link_bps),
                )
                capacities[("tx", end.switch, end.port)] = bps
        for host in topology.hosts:
            ref = topology.host_port(host)
            capacities[("htx", host)] = host_bps
            # The switch's host-facing port is the host's downlink.
            bps = port_overrides.get(
                (ref.switch, ref.port),
                switch_overrides.get(ref.switch, host_bps),
            )
            capacities[("tx", ref.switch, ref.port)] = bps
        #: Validated here, once (a capacity <= 0 or NaN raises
        #: :class:`~repro.flowsim.maxmin.FairnessError`); its key objects
        #: are the link ids every route hands out.
        self.capacities = CapacityTable(capacities)

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
    ) -> Optional[Tuple[LinkId, ...]]:
        """Directed link ids a flow on this path occupies, or None if
        the path crosses a failed link.

        The tag walk itself is cached (the wiring is immutable) and
        handed out as a tuple: flows and the candidate memo hold the
        same object.  Aliveness against the current failure set is
        checked per call.
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
    ) -> Optional[Tuple[LinkId, ...]]:
        try:
            tags = self.topology.encode_path(src_host, switch_path, dst_host)
        except TopologyError:
            return None
        # Tag i leaves switch_path[i] (the last one towards dst_host).
        # Each id is the table's key object: every route then shares
        # one tuple per link.
        rank, ids = self.capacities.rank, self.capacities.links
        links = [("htx", src_host)]
        links.extend(("tx", here, tag) for here, tag in zip(switch_path, tags))
        return tuple(
            link if (slot := rank.get(link)) is None else ids[slot] for link in links
        )

    def path_is_alive(self, src_host: str, switch_path: Sequence[str], dst_host: str) -> bool:
        return self.route_links(src_host, switch_path, dst_host) is not None

    def flow_links(self, flow: "Flow") -> Optional[Tuple[LinkId, ...]]:
        """:meth:`route_links` of the flow's current path (None without
        one), resolved once and reused until the flow is given another
        path object or a cable changes state."""
        path = flow.switch_path
        if path is None:
            return None
        if flow._links_path is not path or flow._links_epoch != self.link_epoch:
            flow._links = self.route_links(flow.src, path, flow.dst)
            flow._links_path = path
            flow._links_epoch = self.link_epoch
        return flow._links

    def candidates(self, src_host: str, dst_host: str, k: int) -> Tuple[Candidate, ...]:
        """The k shortest alive switch paths between two hosts, each
        paired with its :meth:`route_links`.

        The Yen enumeration is cached per switch pair (the topology
        itself never changes, only link state); the aliveness walk over
        its candidates is cached per host pair until a cable changes
        state.  Yen's loop only ever stops earlier for a smaller count,
        so its first k paths are the same whether k or 2k were asked
        for: k suffice while every one of them is alive, and the 2k
        margin is enumerated once a cable is down or a walk fails.
        Yen's first path is walked back through the source switch's
        memoised SSSP tree, which gives the per-pair Dijkstra's path.
        """
        memo = (src_host, dst_host, k)
        found = self._alive_cache.get(memo)
        if found is None:
            src_sw = self.topology.host_port(src_host).switch
            dst_sw = self.topology.host_port(dst_host).switch
            for want in (2 * k,) if self._down_ports else (k, 2 * k):
                key = (src_sw, dst_sw, want)
                paths = self._path_cache.get(key)
                if paths is None:
                    paths = self.topology.k_shortest_switch_paths(
                        src_sw, dst_sw, want, self._tree(src_sw)
                    )
                    self._path_cache[key] = paths
                alive = [
                    (path, links)
                    for path in paths
                    if (links := self.route_links(src_host, path, dst_host)) is not None
                ]
                if len(alive) == len(paths):
                    break  # nothing filtered: a longer list adds nothing to [:k]
            found = self._alive_cache[memo] = tuple(alive[:k])
        return found

    def _tree(self, src_sw: str) -> SSSPTree:
        """The memoised :meth:`~repro.topology.Topology.sssp_tree` of a
        source switch, rebuilt if the wiring ever changed under it."""
        key = (src_sw, self.topology.topo_version)
        tree = self._trees.get(key)
        if tree is None:
            tree = self._trees[key] = self.topology.sssp_tree(src_sw)
        return tree

    def k_paths(self, src_host: str, dst_host: str, k: int) -> List[List[str]]:
        """k shortest alive switch paths between two hosts (a fresh
        list of the memoised :meth:`candidates` paths)."""
        return [path for path, _links in self.candidates(src_host, dst_host, k)]
