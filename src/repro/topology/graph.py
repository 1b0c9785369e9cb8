"""Physical topology model for DumbNet fabrics.

A :class:`Topology` describes the wiring of a data center fabric exactly
the way the DumbNet paper does (Section 3.2, Figure 1): switches with
numbered ports, hosts attached to switch ports, and point-to-point links
between switch ports.

DumbNet switches have no addresses in the dataplane sense -- a packet
only carries output-port tags -- but every switch owns a factory-burned
unique ID that it reports when it receives an ID-query tag (Section 4.1).
The topology model therefore names switches by those IDs.

The model is deliberately separate from the emulator (:mod:`repro.netsim`)
and from the control plane (:mod:`repro.core`): the controller builds its
*view* of the network as a ``Topology`` object, and the emulator
instantiates the *ground truth* from another ``Topology`` object.  Tests
compare the two for equality after discovery.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import (
    Collection, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

__all__ = [
    "PortRef", "Link", "HostAttachment", "SSSPTree", "SwitchIndex", "Topology",
    "TopologyError",
]


_INF = float("inf")


class TopologyError(ValueError):
    """Raised for malformed wiring: duplicate ports, unknown nodes, etc."""


@dataclass(frozen=True, order=True, slots=True)
class PortRef:
    """A (switch, port) endpoint.  Ports are numbered from 1.

    Port 0 is reserved by the DumbNet dataplane for the switch-ID query
    tag (Section 4.1) and can never be wired.
    """

    switch: str
    port: int

    def __str__(self) -> str:  # e.g. "S2-1", matching the paper's notation
        return f"{self.switch}-{self.port}"


@dataclass(frozen=True, slots=True)
class Link:
    """An undirected switch-to-switch cable between two :class:`PortRef`."""

    a: PortRef
    b: PortRef
    #: Computed once: the path searches look a cable's identity up per
    #: relaxed edge.  Not part of eq / hash / repr.
    _key: FrozenSet[PortRef] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise TopologyError(f"link connects port {self.a} to itself")
        object.__setattr__(self, "_key", frozenset((self.a, self.b)))

    @property
    def endpoints(self) -> Tuple[PortRef, PortRef]:
        return (self.a, self.b)

    def other(self, end: PortRef) -> PortRef:
        if end == self.a:
            return self.b
        if end == self.b:
            return self.a
        raise TopologyError(f"{end} is not an endpoint of {self}")

    def key(self) -> FrozenSet[PortRef]:
        """Orientation-independent identity of the cable."""
        return self._key

    def __str__(self) -> str:
        return f"{self.a}<->{self.b}"


#: An adjacency entry: (neighbour switch, cable, neighbour's bit).
_Entry = Tuple[str, Link, int]


class SwitchIndex:
    """Switch bits and interned cables, shared by one fabric's topologies
    (:meth:`Topology.copy` shares its own; a bare ``Topology()`` gets a
    fresh one).

    ``bit[name]`` is ``1 << i`` where ``names[i] == name``, in the order
    names first reach the index; a removed switch keeps its bit.
    ``cables`` maps an oriented ``(a switch, a port, b switch, b port)``
    to the frozen ``Link`` and adjacency entries (``a``'s, ``b``'s)
    :meth:`Topology.merge_links` wires, so host fragments folding in the
    same replies hold one value per cable.
    """

    __slots__ = ("bit", "names", "cables")

    def __init__(self) -> None:
        self.bit: Dict[str, int] = {}
        self.names: List[str] = []
        self.cables: Dict[Tuple[str, int, str, int], Tuple[Link, _Entry, _Entry]] = {}

    def mask_of(self, switches: Iterable[str]) -> int:
        """The OR of ``switches``' bits: the inverse of :meth:`switches_in`."""
        bit, mask = self.bit, 0
        for sw in switches:
            mask |= bit[sw]
        return mask

    def switches_in(self, mask: int) -> Set[str]:
        """The switches whose bits are set in ``mask``."""
        names, found = self.names, set()
        while mask:
            low = mask & -mask
            found.add(names[low.bit_length() - 1])
            mask ^= low
        return found

    def reach(self, nmask: Dict[str, int], mask: int) -> int:
        """The union of ``nmask`` over the switches whose bits ``mask`` sets."""
        names, reach = self.names, 0
        while mask:
            i = mask.bit_length() - 1
            reach |= nmask[names[i]]
            mask ^= 1 << i
        return reach

    def entries(self, link: Link) -> Tuple[_Entry, _Entry]:
        """``link``'s adjacency entries on its ``a`` and ``b`` switches."""
        sw_a, sw_b = link.a.switch, link.b.switch
        return (sw_b, link, self.bit[sw_b]), (sw_a, link, self.bit[sw_a])


@dataclass(frozen=True, slots=True)
class HostAttachment:
    """A host NIC plugged into a switch port."""

    host: str
    attachment: PortRef


class SSSPTree:
    """A unit-cost shortest-path DAG rooted at ``source``: ``levels[d]``
    lists the switches ``d`` hops away in discovery order, ``masks[d]``
    ORs their bits, ``dist`` maps each to its float distance in level
    order.  A switch's equal-cost parents, in the relaxation order of
    :meth:`Topology.shortest_switch_path`, are the level before its own
    filtered by its neighbour mask.

    A tree is no snapshot: it reads the topology's live mask table and
    index, so it is valid only under the ``(uid, topo_version)`` it was
    built for, or while a :class:`~repro.core.pathservice.PathService`
    keeps it (the service flushes it on any other mutation).  After any
    other mutation it may give wrong parents or raise ``KeyError``.
    """

    __slots__ = ("source", "dist", "levels", "masks", "_nmask", "_index")

    def __init__(
        self,
        source: str,
        dist: Dict[str, float],
        levels: List[List[str]],
        masks: List[int],
        nmask: Dict[str, int],
        index: SwitchIndex,
    ) -> None:
        self.source, self.dist, self.levels, self.masks = source, dist, levels, masks
        # The topology's live mask table; a filtered copy when the
        # search cut cables.
        self._nmask = nmask
        self._index = index

    def parents_of(self, switch: str) -> List[str]:
        """``switch``'s equal-cost predecessors, in relaxation order."""
        depth = int(self.dist[switch])
        if not depth:
            return []
        tied = self._nmask[switch] & self.masks[depth - 1]
        bit = self._index.bit
        return [sw for sw in self.levels[depth - 1] if bit[sw] & tied]

    def path_to(
        self, dst: str, rng: Optional[random.Random] = None
    ) -> Optional[List[str]]:
        """One shortest switch sequence ``source -> dst``; None when
        unreachable.  With ``rng`` the choice among equal-cost parents
        is randomized exactly like :meth:`Topology.shortest_switch_path`.
        """
        depth = self.dist.get(dst)
        if depth is None:
            return None
        nmask, masks, levels, bit = self._nmask, self.masks, self.levels, self._index.bit
        path = [dst]
        for level in range(int(depth) - 1, -1, -1):
            tied = nmask[path[-1]] & masks[level]
            if tied & (tied - 1):  # scan the level for the parents (rng) or the first
                choices = []
                for sw in levels[level]:
                    if bit[sw] & tied:
                        choices.append(sw)
                        tied ^= bit[sw]
                        if not tied or rng is None:
                            break
            else:
                choices = [self._index.names[tied.bit_length() - 1]]
            path.append(rng.choice(choices) if rng is not None else choices[0])
        path.reverse()
        return path


class Topology:
    """Mutable wiring diagram of switches, hosts and links.

    The class also carries the graph algorithms the DumbNet controller
    needs: shortest paths with randomized tie-breaking (Section 4.3),
    k-shortest paths for the PathTable (Section 5.2), and the level masks
    the path-graph detour search uses (Algorithm 1).
    """

    _uids = itertools.count(1)

    def __init__(self, index: Optional[SwitchIndex] = None) -> None:
        #: The switch bits and interned cables; shared with every
        #: topology built from this one, fresh when none is given.
        self.index = index if index is not None else SwitchIndex()
        #: Process-unique and never reused (unlike ``id()``); a
        #: :meth:`copy` gets its own.  With :attr:`topo_version` it is
        #: the coherency key for anything memoized against this object.
        self.uid = next(Topology._uids)
        self._switch_ports: Dict[str, int] = {}
        self._hosts: Dict[str, PortRef] = {}
        # Occupancy of every wired port: PortRef -> Link | HostAttachment
        self._port_use: Dict[PortRef, object] = {}
        self._links: Dict[FrozenSet[PortRef], Link] = {}
        # Adjacency: switch -> list of adjacency entries (neighbor
        # switch, Link, neighbor's bit), in wiring order -- the order the
        # path searches relax edges in.
        self._adj: Dict[str, List[_Entry]] = {}
        # The cables a switch is the ``a`` side of as edge tuples (shared
        # by every cached path graph): filled on demand, dropped for the
        # switches a mutation touches.
        self._aside: Dict[str, List[Tuple[str, int, str, int]]] = {}
        # The union of a switch's neighbours' bits (:attr:`index`).
        self._nmask: Dict[str, int] = {}
        # Only switches with a host attached have a list.
        self._hosts_on_switch: Dict[str, List[str]] = {}
        #: Bumped by every switch-graph mutation (switches and cables,
        #: not host attachments).  Consumers that memoize shortest-path
        #: state (the controller's path service) compare it to detect
        #: mutations made behind their back.
        self.topo_version = 0

    # ------------------------------------------------------------------
    # construction

    def add_switch(self, switch: str, num_ports: int) -> None:
        """Register a switch with ports numbered 1..num_ports."""
        if switch in self._switch_ports:
            raise TopologyError(f"duplicate switch {switch!r}")
        if num_ports < 1:
            raise TopologyError(f"switch {switch!r} needs at least one port")
        self._switch_ports[switch] = num_ports
        self._adj[switch] = []
        index = self.index
        if switch not in index.bit:
            index.bit[switch] = 1 << len(index.names)
            index.names.append(switch)
        self._nmask[switch] = 0
        self.topo_version += 1

    def add_host(self, host: str, switch: str, port: int) -> None:
        """Plug a host NIC into ``switch`` at ``port``."""
        if host in self._hosts:
            raise TopologyError(f"duplicate host {host!r}")
        ref = self._check_port(switch, port)
        self._claim_ports(HostAttachment(host, ref), ref)
        self._hosts[host] = ref
        self._hosts_on_switch.setdefault(switch, []).append(host)

    def add_link(self, sw_a: str, port_a: int, sw_b: str, port_b: int) -> Link:
        """Wire a cable between two switch ports."""
        link = Link(*self._check_cable(sw_a, port_a, sw_b, port_b))
        if link.key() in self._links:
            raise TopologyError(f"duplicate link {link}")
        self._wire(link, *self.index.entries(link))
        return link

    def merge_links(
        self, edges: Iterable[Tuple[str, int, str, int]], num_ports: int
    ) -> None:
        """Fold ``(a switch, a port, b switch, b port)`` cables in, in
        order, the way a host fragment absorbs a path graph: each edge's
        unknown switches are added with ``num_ports`` ports (even when
        the cable is then skipped), and a cable is wired only when both
        of its ports are free.  A self-cable or an out-of-range port
        raises as in :meth:`add_link`.  Wired cables, and their
        adjacency entries, are the values interned in ``index.cables``.
        """
        ports, use, cables = self._switch_ports, self._port_use, self.index.cables
        for edge in edges:
            sw_a, port_a, sw_b, port_b = edge
            if sw_a not in ports:
                self.add_switch(sw_a, num_ports)
            if sw_b not in ports:
                self.add_switch(sw_b, num_ports)
            cable = cables.get(edge)
            if cable is None:
                a, b = PortRef(sw_a, port_a), PortRef(sw_b, port_b)
            else:
                a, b = cable[0].a, cable[0].b
            if a in use or b in use:
                continue  # a cable already here occupies one of the ports
            self._check_cable(sw_a, port_a, sw_b, port_b)
            if cable is None:
                link = Link(a, b)
                cable = cables[edge] = (link, *self.index.entries(link))
            self._wire(*cable)

    def _wire(self, link: Link, on_a: _Entry, on_b: _Entry) -> None:
        """Insert a checked cable with its adjacency entries on its
        ``a`` and ``b`` switches: occupancy, adjacency, masks, version."""
        a, b = link.a, link.b
        self._claim_ports(link, a, b)
        self._links[link.key()] = link
        sw_a, sw_b = a.switch, b.switch
        self._adj[sw_a].append(on_a)
        self._adj[sw_b].append(on_b)
        self._nmask[sw_a] |= on_a[2]
        self._nmask[sw_b] |= on_b[2]
        self._aside.pop(sw_a, None)
        self.topo_version += 1

    def remove_link(self, sw_a: str, port_a: int, sw_b: str, port_b: int) -> None:
        """Unplug a cable (used for failure injection and topology patches)."""
        key = frozenset((PortRef(sw_a, port_a), PortRef(sw_b, port_b)))
        link = self._links.pop(key, None)
        if link is None:
            raise TopologyError(f"no link {sw_a}-{port_a} <-> {sw_b}-{port_b}")
        del self._port_use[link.a]
        del self._port_use[link.b]
        for sw in (link.a.switch, link.b.switch):
            adj = self._adj[sw] = [edge for edge in self._adj[sw] if edge[1] is not link]
            self._nmask[sw] = sum({bit for _nbr, _lnk, bit in adj})  # distinct bits
        self._aside.pop(link.a.switch, None)
        self.topo_version += 1

    def remove_switch(self, switch: str) -> None:
        """Remove a switch together with its links and host attachments."""
        if switch not in self._switch_ports:
            raise TopologyError(f"unknown switch {switch!r}")
        for link in list(self.links_of(switch)):
            self.remove_link(link.a.switch, link.a.port, link.b.switch, link.b.port)
        for host in list(self._hosts_on_switch.get(switch, ())):
            self.remove_host(host)
        del self._switch_ports[switch]
        del self._adj[switch]
        del self._nmask[switch]
        self._aside.pop(switch, None)
        self.topo_version += 1

    def remove_host(self, host: str) -> None:
        ref = self._hosts.pop(host, None)
        if ref is None:
            raise TopologyError(f"unknown host {host!r}")
        del self._port_use[ref]
        on = self._hosts_on_switch[ref.switch]
        on.remove(host)
        if not on:
            del self._hosts_on_switch[ref.switch]

    def _check_cable(
        self, sw_a: str, port_a: int, sw_b: str, port_b: int
    ) -> Tuple[PortRef, PortRef]:
        if sw_a == sw_b:
            raise TopologyError(f"switch {sw_a!r} cannot be cabled to itself")
        return self._check_port(sw_a, port_a), self._check_port(sw_b, port_b)

    def _check_port(self, switch: str, port: int) -> PortRef:
        if switch not in self._switch_ports:
            raise TopologyError(f"unknown switch {switch!r}")
        if not 1 <= port <= self._switch_ports[switch]:
            raise TopologyError(
                f"port {port} out of range 1..{self._switch_ports[switch]} on {switch!r}"
            )
        return PortRef(switch, port)

    def _claim_ports(self, user: object, *refs: PortRef) -> None:
        """Occupy every port in ``refs`` for ``user``, or none of them."""
        for ref in refs:
            if ref in self._port_use:
                raise TopologyError(f"port {ref} already in use by {self._port_use[ref]}")
        for ref in refs:
            self._port_use[ref] = user

    # ------------------------------------------------------------------
    # queries

    @property
    def switches(self) -> List[str]:
        return list(self._switch_ports)

    @property
    def hosts(self) -> List[str]:
        return list(self._hosts)

    @property
    def links(self) -> List[Link]:
        return list(self._links.values())

    def num_ports(self, switch: str) -> int:
        try:
            return self._switch_ports[switch]
        except KeyError:
            raise TopologyError(f"unknown switch {switch!r}") from None

    def has_switch(self, switch: str) -> bool:
        return switch in self._switch_ports

    def has_host(self, host: str) -> bool:
        return host in self._hosts

    def has_link(self, sw_a: str, port_a: int, sw_b: str, port_b: int) -> bool:
        return frozenset((PortRef(sw_a, port_a), PortRef(sw_b, port_b))) in self._links

    def host_port(self, host: str) -> PortRef:
        """The switch port the host NIC is plugged into."""
        try:
            return self._hosts[host]
        except KeyError:
            raise TopologyError(f"unknown host {host!r}") from None

    def hosts_on(self, switch: str) -> List[str]:
        return list(self._hosts_on_switch.get(switch, ()))

    def peer(self, switch: str, port: int) -> Optional[object]:
        """What is plugged into (switch, port)?

        Returns a :class:`PortRef` of the far end for a switch-switch
        link, a :class:`HostAttachment` for a host, or ``None`` if the
        port is empty.
        """
        user = self._port_use.get(PortRef(switch, port))
        if user is None:
            return None
        if isinstance(user, Link):
            return user.other(PortRef(switch, port))
        return user

    def links_of(self, switch: str) -> Iterator[Link]:
        """Every cable on ``switch``, once (a cable cannot loop back)."""
        for _nbr, link, _bit in self._adj.get(switch, ()):
            yield link

    def neighbors(self, switch: str) -> List[str]:
        """Distinct neighbor switches (parallel links collapse)."""
        return sorted({nbr for nbr, _link, _bit in self._adj.get(switch, ())})

    def links_between(self, sw_a: str, sw_b: str) -> List[Link]:
        return [link for nbr, link, _bit in self._adj.get(sw_a, ()) if nbr == sw_b]

    def links_within(self, mask: int) -> List[Tuple[str, int, str, int]]:
        """Every cable with both ends' bits set in ``mask``, once, as ``(a
        switch, a port, b switch, b port)``: emitted from its ``a`` side."""
        aside, switches = self._aside, self.index.switches_in(mask)
        for sw in switches:
            if sw not in aside:
                aside[sw] = [
                    (sw, link.a.port, nbr, link.b.port)
                    for nbr, link, _bit in self._adj[sw]
                    if link.a.switch == sw
                ]
        return [edge for sw in switches for edge in aside[sw] if edge[2] in switches]

    def degree(self, switch: str) -> int:
        return len(self._adj.get(switch, ()))

    # ------------------------------------------------------------------
    # comparisons and copies

    def copy(self) -> "Topology":
        """A twin with its own uid: same wiring, adjacency order and masks,
        and the same :class:`SwitchIndex`."""
        clone = Topology(self.index)
        clone._switch_ports, clone._hosts = dict(self._switch_ports), dict(self._hosts)
        clone._port_use, clone._links = dict(self._port_use), dict(self._links)
        clone._adj = {sw: list(adj) for sw, adj in self._adj.items()}
        clone._nmask = dict(self._nmask)
        clone._hosts_on_switch = {sw: list(on) for sw, on in self._hosts_on_switch.items()}
        clone.topo_version = self.topo_version
        return clone

    def same_wiring(self, other: "Topology") -> bool:
        """Structural equality: same switches, links and host attachments."""
        return (
            self._switch_ports.keys() == other._switch_ports.keys()
            and set(self._links) == set(other._links)
            and self._hosts == other._hosts
        )

    def is_connected(self) -> bool:
        """True when every switch can reach every other switch."""
        if not self._switch_ports:
            return True
        start = next(iter(self._switch_ports))
        return len(self.sssp_tree(start).dist) == len(self._switch_ports)

    # ------------------------------------------------------------------
    # graph algorithms used by the controller

    def switch_distances(self, source: str) -> Dict[str, int]:
        """Hop distance from ``source`` to every reachable switch (BFS
        over sorted neighbours, which sets the key order)."""
        if source not in self._switch_ports:
            raise TopologyError(f"unknown switch {source!r}")
        dist = {source: 0}
        frontier = [source]
        hops = 0
        while frontier:
            hops += 1
            nxt: List[str] = []
            for sw in frontier:
                for nbr in self.neighbors(sw):
                    if nbr not in dist:
                        dist[nbr] = hops
                        nxt.append(nbr)
            frontier = nxt
        return dist

    def sssp_tree(
        self,
        source: str,
        *,
        avoid: Collection[Tuple[str, str]] = (),
        stop: Optional[str] = None,
    ) -> SSSPTree:
        """The unit-cost shortest-path DAG from ``source``.

        A level-order BFS through adjacency lists in wiring order, which
        with unit costs relaxes the edges a ``(distance, push counter)``
        Dijkstra does in the same sequence: one tree answers every
        destination :meth:`shortest_switch_path` would, with the same
        parent lists.  A frontier switch whose neighbour mask has no
        unseen bit is skipped; otherwise its adjacency is walked only
        until each unseen neighbour is appended (discovery order).

        ``avoid`` (switch pairs) searches the graph without any cable
        between those pairs.  ``stop`` ends the search at the level that
        reaches that switch: the tree then holds the levels before it
        and ``stop`` alone in its own, exactly what ``path_to(stop)``
        walks.
        """
        if source not in self._switch_ports:
            raise TopologyError(f"unknown switch {source!r}")
        bits, nmask, adj = self.index.bit, self._nmask, self._adj
        if avoid:
            # Only the avoided pairs' own switches lose mask bits.
            nmask = dict(nmask)
            for here, there in avoid:
                nmask[here] &= ~bits[there]
                nmask[there] &= ~bits[here]
        into_stop = nmask.get(stop, 0)
        dist: Dict[str, float] = {source: 0.0}
        seen = bits[source]
        levels, masks = [[source]], [seen]
        d = 0.0
        while stop not in dist:
            d += 1.0
            if into_stop & masks[-1]:
                levels.append([stop])
                masks.append(bits[stop])
                dist[stop] = d
                break
            nxt: List[str] = []
            before = seen
            for sw in levels[-1]:
                new = nmask[sw] & ~seen
                if new:
                    seen |= new
                    for nbr, _link, nbit in adj[sw]:
                        if new & nbit:
                            nxt.append(nbr)
                            new ^= nbit
                            if not new:
                                break
            if not nxt:
                break
            for sw in nxt:
                dist[sw] = d
            levels.append(nxt)
            masks.append(seen ^ before)
        return SSSPTree(source, dist, levels, masks, nmask, self.index)

    def shortest_switch_path(
        self,
        src: str,
        dst: str,
        rng: Optional[random.Random] = None,
        link_costs: Optional[Dict[FrozenSet[PortRef], float]] = None,
        tree: Optional[SSSPTree] = None,
    ) -> Optional[List[str]]:
        """One shortest switch sequence from ``src`` to ``dst``.

        With ``rng`` the choice among equal-cost parents is randomized,
        which is exactly how the paper's controller generates different
        shortest paths for load balancing (Section 4.3).  ``link_costs``
        lets the path-graph generator inflate primary-path links when it
        computes the backup path.  ``tree`` short-circuits the Dijkstra
        run with a precomputed :meth:`sssp_tree` rooted at ``src``; the
        caller guarantees the tree was built on this topology and passes
        no ``link_costs`` with it.
        """
        if tree is not None:
            if tree.source != src:
                raise TopologyError(
                    f"precomputed tree is rooted at {tree.source!r}, not {src!r}"
                )
            return tree.path_to(dst, rng=rng)
        if src not in self._switch_ports or dst not in self._switch_ports:
            return None
        if src == dst:
            return [src]
        adj = self._adj
        # Only switches on a re-priced cable look costs up per edge.
        cost_of = (link_costs or {}).get
        repriced = {end.switch for key in link_costs or () for end in key}
        dist: Dict[str, float] = {src: 0.0}
        parents: Dict[str, List[str]] = {}
        heap: List[Tuple[float, int, str]] = [(0.0, 0, src)]
        pushes = 0
        while heap:
            d, _tie, sw = heapq.heappop(heap)
            if d > dist[sw]:
                continue
            if sw == dst:
                break
            lookup = sw in repriced
            nd = d + 1.0
            for nbr, link, _bit in adj[sw]:
                if lookup:
                    nd = d + cost_of(link._key, 1.0)
                old = dist.get(nbr, _INF)
                if nd < old - 1e-12:
                    dist[nbr] = nd
                    parents[nbr] = [sw]
                    pushes += 1
                    heapq.heappush(heap, (nd, pushes, nbr))
                elif -1e-12 <= nd - old <= 1e-12:
                    tied = parents.get(nbr)
                    if tied is None:
                        parents[nbr] = [sw]
                    elif sw not in tied:
                        tied.append(sw)
        if dst not in dist:
            return None
        # Walk back choosing a parent (randomly when rng given).
        path = [dst]
        cur = dst
        while cur != src:
            choices = parents[cur]
            cur = rng.choice(choices) if rng is not None else choices[0]
            path.append(cur)
        path.reverse()
        return path

    def k_shortest_switch_paths(
        self, src: str, dst: str, k: int, tree: Optional[SSSPTree] = None
    ) -> List[List[str]]:
        """Yen's algorithm for the k shortest loop-free switch sequences;
        ``tree`` serves the first one as in :meth:`shortest_switch_path`."""
        if k < 1:
            return []
        first = self.shortest_switch_path(src, dst, tree=tree)
        if first is None:
            return []
        paths = [first]
        #: every path ever accepted or queued, so a duplicate is one probe
        seen = {tuple(first)}
        candidates: List[Tuple[int, int, List[str]]] = []
        counter = itertools.count()
        want = k - 1
        # Queued candidates as short as ``first``.  Every candidate is at
        # least that long and a later push loses every tie, so once these
        # cover the paths still wanted the pops are fixed: no more spurs.
        short = 0
        while want:
            if short < want:
                prev = paths[-1]
                # Accepted paths that share prev[:i + 1]; shrinks as i grows.
                sharing = paths
                for i in range(len(prev) - 1):
                    spur = prev[i]
                    sharing = [p for p in sharing if len(p) > i + 1 and p[i] == spur]
                    spur_path = self._shortest_avoiding(
                        spur, dst, prev[:i], {p[i + 1] for p in sharing}
                    )
                    if spur_path is not None:
                        total = prev[:i] + spur_path
                        identity = tuple(total)
                        if identity not in seen:
                            seen.add(identity)
                            heapq.heappush(
                                candidates, (len(total), next(counter), total)
                            )
                            short += len(total) == len(first)
                            if short >= want:
                                break
            if not candidates:
                break
            length, _tie, best = heapq.heappop(candidates)
            short -= length == len(first)
            paths.append(best)
            want -= 1
        return paths

    def _shortest_avoiding(
        self,
        src: str,
        dst: str,
        banned_nodes: Iterable[str],
        banned_first_hops: Collection[str],
    ) -> Optional[List[str]]:
        """The shortest path that never enters ``banned_nodes`` and does
        not leave ``src`` towards any of ``banned_first_hops`` (Yen only
        ever bans edges out of the spur node); of several, the one whose
        switch names are smallest position by position -- the path a BFS
        over sorted neighbours finds.

        In switch bits: level masks out from ``src`` (banned switches
        start out seen, first-hop bans apply to level 1 only) until one
        holds ``dst``; back from ``dst``, each level's switches that
        lie on a shortest path; then from ``src`` the smallest name
        among each step's candidates."""
        nmask, index = self._nmask, self.index
        bit = index.bit
        banned = index.mask_of(banned_nodes)
        if (bit[src] | bit[dst]) & banned:
            return None
        if src == dst:
            return [src]
        seen, levels = banned | bit[src], []
        frontier = nmask[src] & ~seen & ~index.mask_of(banned_first_hops)
        while not frontier & bit[dst]:
            if not frontier:
                return None
            levels.append(frontier)
            seen |= frontier
            frontier = index.reach(nmask, frontier) & ~seen
        # Per level, back from dst: the switches with a shortest way on.
        kept = [bit[dst]]
        for level in reversed(levels):
            kept.append(level & index.reach(nmask, kept[-1]))
        names, path = index.names, [src]
        for on in reversed(kept):
            tied, best = nmask[path[-1]] & on, None
            while tied:
                i = tied.bit_length() - 1
                if best is None or names[i] < best:
                    best = names[i]
                tied ^= 1 << i
            path.append(best)
        return path

    # ------------------------------------------------------------------
    # tag encoding (Section 3.2)

    def encode_path(self, src_host: str, switch_path: Sequence[str], dst_host: str) -> List[int]:
        """Translate a switch sequence into the per-hop output-port tags.

        ``switch_path`` must start at the switch ``src_host`` attaches to
        and end at the switch ``dst_host`` attaches to.  The returned tag
        list does *not* include the ø terminator; the packet layer adds it.
        """
        src_ref = self.host_port(src_host)
        dst_ref = self.host_port(dst_host)
        if not switch_path or switch_path[0] != src_ref.switch:
            raise TopologyError(
                f"path must start at {src_ref.switch!r} (host {src_host!r}), got {switch_path!r}"
            )
        if switch_path[-1] != dst_ref.switch:
            raise TopologyError(
                f"path must end at {dst_ref.switch!r} (host {dst_host!r}), got {switch_path!r}"
            )
        tags: List[int] = []
        adj = self._adj
        for here, there in zip(switch_path, switch_path[1:]):
            # The first cable in wiring order, as links_between(...)[0].
            for nbr, link, _bit in adj.get(here, ()):
                if nbr == there:
                    tags.append((link.a if link.a.switch == here else link.b).port)
                    break
            else:
                raise TopologyError(f"no link between {here!r} and {there!r}")
        tags.append(dst_ref.port)
        return tags

    def summary(self) -> str:
        return (
            f"Topology(switches={len(self._switch_ports)}, "
            f"links={len(self._links)}, hosts={len(self._hosts)})"
        )

    def __repr__(self) -> str:
        return self.summary()
