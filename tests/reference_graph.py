"""The seed path algorithms, kept as oracles.

These are the bodies ``repro.topology.graph`` and
``repro.core.pathgraph`` had before the path-kernel rewrite (commit
b8eb70d), copied as plain functions over a :class:`Topology`: a fresh
sorted set per ``neighbors`` call, a heap Dijkstra for ``sssp_tree`` and
for the penalised backup search, a ``frozenset`` built per relaxed edge,
Yen's with linear-scan dedup, a detour scan over whole distance maps,
and the double-walk edge induction.  ``bfs_tree`` and :class:`DictTree`
are the dict-based level-order BFS and parent-list tree that replaced
that Dijkstra before the switch-bit kernel did.  They read only
``_adj`` and ``_switch_ports`` and share no code with the kernel, so
``test_graph_differential.py`` can demand kernel == reference.  The
seed builder keeps its switches as a set; it reads the process-wide
switch bits (``_BIT``) only to encode that set as the ``PathGraph``
mask it returns.
:func:`merge_reply` is the host cache's per-edge merge from before
``Topology.merge_links`` (it wires through ``add_link``, so it checks
the loop, not the insertion body).  :func:`decode_tags` is the tag-walk
oracle the tests check encoded paths against.  Nothing under ``src/``
may import this module.
"""

import heapq
import itertools
from dataclasses import dataclass, field

from repro.core.pathcache import FRAGMENT_PORTS
from repro.core.pathgraph import PathGraph
from repro.topology.graph import _BIT, HostAttachment, TopologyError

BACKUP_LINK_PENALTY = 1000.0


@dataclass
class DictTree:
    """A shortest-path DAG as dicts: ``dist`` in level order, and each
    reached switch's equal-cost parents in relaxation order."""

    source: str
    dist: dict = field(default_factory=dict)
    parents: dict = field(default_factory=dict)

    def path_to(self, dst, rng=None):
        if dst not in self.dist:
            return None
        path = [dst]
        cur = dst
        while cur != self.source:
            choices = self.parents[cur]
            cur = rng.choice(choices) if rng is not None else choices[0]
            path.append(cur)
        path.reverse()
        return path


def bfs_tree(topo, source, avoid=(), stop=None):
    """The dict BFS: ``avoid`` holds cable keys, ``stop`` ends the search
    at the level that reaches it (that level is not expanded)."""
    if source not in topo._switch_ports:
        raise TopologyError(f"unknown switch {source!r}")
    adj = topo._adj
    if avoid:
        adj = dict(adj)
        for sw in {end.switch for key in avoid for end in key}:
            adj[sw] = [edge for edge in adj[sw] if link_key(edge[1]) not in avoid]
    into_stop = {edge[0] for edge in adj.get(stop, ())}
    dist = {source: 0.0}
    parents = {}
    frontier = [source]
    d = 0.0
    while frontier and stop not in dist:
        d += 1.0
        if into_stop:
            tied = [sw for sw in frontier if sw in into_stop]
            if tied:
                parents[stop] = tied
                dist[stop] = d
                break
        nxt = []
        for sw in frontier:
            for nbr, _link, _bit in adj[sw]:
                if nbr in dist:
                    continue
                tied = parents.get(nbr)
                if tied is None:
                    parents[nbr] = [sw]
                    nxt.append(nbr)
                elif sw not in tied:
                    tied.append(sw)
        for sw in nxt:
            dist[sw] = d
        frontier = nxt
    return DictTree(source=source, dist=dist, parents=parents)


def link_key(link):
    return frozenset((link.a, link.b))


def neighbors(topo, switch):
    return sorted({nbr for nbr, _link, _bit in topo._adj.get(switch, ())})


def links_of(topo, switch):
    seen = set()
    for _nbr, link, _bit in topo._adj.get(switch, ()):
        if link_key(link) not in seen:
            seen.add(link_key(link))
            yield link


def switch_distances(topo, source):
    if source not in topo._switch_ports:
        raise TopologyError(f"unknown switch {source!r}")
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for sw in frontier:
            for nbr in neighbors(topo, sw):
                if nbr not in dist:
                    dist[nbr] = dist[sw] + 1
                    nxt.append(nbr)
        frontier = nxt
    return dist


def _dijkstra(topo, src, dst, link_costs):
    """The seed relaxation loop; ``dst=None`` never terminates early."""
    dist = {src: 0.0}
    parents = {}
    heap = [(0.0, 0, src)]
    counter = itertools.count(1)
    while heap:
        d, _tie, sw = heapq.heappop(heap)
        if d > dist.get(sw, float("inf")):
            continue
        if sw == dst:
            break
        for nbr, link, _bit in topo._adj[sw]:
            cost = 1.0
            if link_costs is not None:
                cost = link_costs.get(link_key(link), 1.0)
            nd = d + cost
            old = dist.get(nbr, float("inf"))
            if nd < old - 1e-12:
                dist[nbr] = nd
                parents[nbr] = [sw]
                heapq.heappush(heap, (nd, next(counter), nbr))
            elif abs(nd - old) <= 1e-12 and sw not in parents.get(nbr, ()):
                parents.setdefault(nbr, []).append(sw)
    return dist, parents


def sssp_tree(topo, source, link_costs=None):
    if source not in topo._switch_ports:
        raise TopologyError(f"unknown switch {source!r}")
    dist, parents = _dijkstra(topo, source, None, link_costs)
    return DictTree(source=source, dist=dist, parents=parents)


def shortest_switch_path(topo, src, dst, rng=None, link_costs=None):
    if src not in topo._switch_ports or dst not in topo._switch_ports:
        return None
    if src == dst:
        return [src]
    dist, parents = _dijkstra(topo, src, dst, link_costs)
    if dst not in dist:
        return None
    path = [dst]
    cur = dst
    while cur != src:
        choices = parents[cur]
        cur = rng.choice(choices) if rng is not None else choices[0]
        path.append(cur)
    path.reverse()
    return path


def _shortest_avoiding(topo, src, dst, banned_nodes, banned_links):
    if src in banned_nodes:
        return None
    prev = {src: None}
    frontier = [src]
    while frontier:
        nxt = []
        for sw in frontier:
            if sw == dst:
                frontier = []
                break
            for nbr in neighbors(topo, sw):
                if nbr in prev or nbr in banned_nodes:
                    continue
                if (sw, nbr) in banned_links:
                    continue
                prev[nbr] = sw
                nxt.append(nbr)
        else:
            frontier = nxt
            continue
        break
    if dst not in prev:
        return None
    path = [dst]
    cur = dst
    while prev[cur] is not None:
        cur = prev[cur]
        path.append(cur)
    path.reverse()
    return path


def k_shortest_switch_paths(topo, src, dst, k):
    if k < 1:
        return []
    first = shortest_switch_path(topo, src, dst)
    if first is None:
        return []
    paths = [first]
    candidates = []
    counter = itertools.count()
    while len(paths) < k:
        prev = paths[-1]
        for i in range(len(prev) - 1):
            spur = prev[i]
            root = prev[:i + 1]
            banned_links = set()
            for path in paths:
                if path[:i + 1] == root and len(path) > i + 1:
                    banned_links.add((path[i], path[i + 1]))
            banned_nodes = set(root[:-1])
            spur_path = _shortest_avoiding(topo, spur, dst, banned_nodes, banned_links)
            if spur_path is not None:
                total = root[:-1] + spur_path
                if total not in paths and all(c[2] != total for c in candidates):
                    heapq.heappush(candidates, (len(total), next(counter), total))
        if not candidates:
            break
        _len, _tie, best = heapq.heappop(candidates)
        paths.append(best)
    return paths


def detour_vertices(topo, primary, s, epsilon, distances):
    """Algorithm 1, scanning every entry of every window's distance map."""
    detours = set()
    length = len(primary)
    step = max(1, s // 2)
    i = 0
    while i < length - 1:
        a = primary[i]
        b = primary[min(i + s, length - 1)]
        dist_a = distances(a)
        dist_b = distances(b)
        budget = s + epsilon
        for x, da in dist_a.items():
            if da > budget:
                continue
            db = dist_b.get(x)
            if db is not None and da + db <= budget:
                detours.add(x)
        i += step
    return detours


def backup_path(topo, primary, rng=None):
    """The penalised Dijkstra: every cable between consecutive primary
    switches (parallel ones included) costs ``BACKUP_LINK_PENALTY``."""
    costs = {}
    for here, there in zip(primary, primary[1:]):
        for nbr, link, _bit in topo._adj.get(here, ()):
            if nbr == there:
                costs[link_key(link)] = BACKUP_LINK_PENALTY
    backup = shortest_switch_path(
        topo, primary[0], primary[-1], rng=rng, link_costs=costs
    )
    return None if backup == list(primary) else backup


def links_within(topo, nodes):
    """The double-walk edge induction: every cable with both ends in the
    set ``nodes``, once, as ``(a switch, a port, b switch, b port)``."""
    edges = []
    seen_edges = set()
    for node in nodes:
        for link in links_of(topo, node):
            if link.a.switch in nodes and link.b.switch in nodes:
                if link_key(link) not in seen_edges:
                    seen_edges.add(link_key(link))
                    edges.append(
                        (link.a.switch, link.a.port, link.b.switch, link.b.port)
                    )
    return edges


def build_path_graph(topo, src_switch, dst_switch, s=2, epsilon=1, rng=None):
    """The seed builder without its ``tree`` / ``distances`` shortcuts
    (both were required to agree with the fresh searches below)."""
    primary = shortest_switch_path(topo, src_switch, dst_switch, rng=rng)
    if primary is None:
        return None
    backup = backup_path(topo, primary, rng)

    nodes = set(primary)
    if backup:
        nodes.update(backup)
    if len(primary) > 1:
        nodes.update(
            detour_vertices(
                topo, primary, s, epsilon,
                distances=lambda source: switch_distances(topo, source),
            )
        )

    return PathGraph(
        src_switch=src_switch,
        dst_switch=dst_switch,
        primary=tuple(primary),
        backup=tuple(backup) if backup else None,
        mask=sum(_BIT[node] for node in nodes),  # the set, encoded only here
        edges=tuple(sorted(links_within(topo, nodes))),
        s=s,
        epsilon=epsilon,
    )


def decode_tags(topo, src_host, tags):
    """Follow ``tags`` hop by hop from ``src_host``; return the switch
    sequence.  Raises :class:`TopologyError` if a tag points at an empty
    port or the final tag does not land on a host."""
    current = topo.host_port(src_host).switch
    visited = [current]
    for i, tag in enumerate(tags):
        peer = topo.peer(current, tag)
        last = i == len(tags) - 1
        if isinstance(peer, HostAttachment):
            if not last:
                raise TopologyError(
                    f"tag {tag} at {current!r} hits host {peer.host!r} before path end"
                )
            return visited
        if peer is None:
            raise TopologyError(f"tag {tag} at {current!r} points at an empty port")
        current = peer.switch
        visited.append(current)
    raise TopologyError("tag list ends on a switch, not a host")


def merge_reply(cache, reply):
    """``TopoCache.merge_reply`` with the seed's per-edge loop: add both
    switches, then ``add_link`` (a fresh ``Link``) when ``peer`` finds
    both ports empty.  Attachments, version and dead ports go through
    the cache's own methods, as the seed did."""
    fragment = cache.fragment
    for sw_a, port_a, sw_b, port_b in reply.edges:
        for switch in (sw_a, sw_b):
            if not fragment.has_switch(switch):
                fragment.add_switch(switch, FRAGMENT_PORTS)
        if fragment.peer(sw_a, port_a) is None and fragment.peer(sw_b, port_b) is None:
            fragment.add_link(sw_a, port_a, sw_b, port_b)
    for host, attachment in (
        (reply.src, reply.src_attachment),
        (reply.dst, reply.dst_attachment),
    ):
        if attachment is not None:
            cache.record_attachment(host, attachment[0], attachment[1])
    cache.version = max(cache.version, reply.version)
    cache._apply_dead_ports()
