"""Path kernel == seed algorithms, under mutation.

``reference_graph.py`` holds the bodies ``Topology`` and
``build_path_graph`` had before the kernel rewrite.  The property below
wires random views (parallel cables included), interleaves queries with
``add_link`` / ``remove_link`` / ``remove_switch`` (and a switch removed
and added back) so every memo is filled and then invalidated, and
demands equal answers: same distances, same parent lists *in the same
order*, same paths for the same seeded rng (and the rng left in the
same state), same Yen lists, same ``PathGraph``.  The switch-bit
``sssp_tree`` is held to the dict BFS it replaced (``ref.bfs_tree``) on
full, ``stop`` and ``avoid`` searches.  More properties pin the pieces
that stopped being the seed's searches: Yen's bit-walking spur search
against the seed's BFS over sorted neighbours, the backup BFS against
the penalised Dijkstra, a host agent's
installs against seed Yen + the seed builder on its fragment over time,
its cache merges (``Topology.merge_links`` over interned cables) against
the seed's per-edge merge, and the path service's keep / rebuild
decision for its trees across link-down / link-up sequences.
"""

import itertools
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_graph as ref
from repro.core.controller import PATH_GRAPH_EPSILON, PATH_GRAPH_S
from repro.core.host_agent import K_PATHS, HostAgent
from repro.core.messages import (
    PathReply,
    PortStateNotification,
    TopologyChange,
    TopologyPatch,
)
from repro.core.pathcache import FRAGMENT_PORTS
from repro.core.pathgraph import backup_path, build_path_graph, detour_vertices
from repro.core.pathservice import PathService, StablePathRng
from repro.netsim.events import EventLoop
from repro.topology import cube, fat_tree, jellyfish
from repro.topology.graph import SwitchIndex, Topology, TopologyError


def make_view(kind, a, b, seed):
    """A small view with at least four spare ports on every switch."""
    if kind == "jellyfish":
        degree = 2 + b % 3
        return jellyfish(6 + a % 9, degree, num_ports=degree + 5, seed=seed)
    if kind == "fat_tree":
        return fat_tree(4, num_ports=8)
    dims = [2 + a % 3, 2 + b % 2] + ([2] if seed % 2 else [])
    return cube(dims, hosts_per_switch=1, num_ports=2 * len(dims) + 5)


def free_port(topo, switch):
    for port in range(1, topo.num_ports(switch) + 1):
        if topo.peer(switch, port) is None:
            return port
    return None


def cycle_switch(topo, switch, keep):
    """Remove ``switch`` and add it back under its name (so its bit),
    with its hosts and the first ``keep`` of its cables in wiring order."""
    ports = topo.num_ports(switch)
    cables = [(l.a.switch, l.a.port, l.b.switch, l.b.port) for l in topo.links_of(switch)]
    hosts = [(host, topo.host_port(host).port) for host in topo.hosts_on(switch)]
    topo.remove_switch(switch)
    topo.add_switch(switch, ports)
    for host, port in hosts:
        topo.add_host(host, switch, port)
    for cable in cables[:keep]:
        topo.add_link(*cable)


def mutate(topo, op, x, y):
    """One wiring change; silently a no-op when it cannot apply."""
    switches = sorted(topo.switches)
    links = sorted(
        (l.a.switch, l.a.port, l.b.switch, l.b.port) for l in topo.links
    )
    if op == "remove_link" and links:
        topo.remove_link(*links[x % len(links)])
    elif op == "remove_switch" and len(switches) > 4:
        topo.remove_switch(switches[x % len(switches)])
    elif op == "cycle_switch":
        switch = switches[x % len(switches)]
        cycle_switch(topo, switch, y % (topo.degree(switch) + 1))
    elif op in ("add_link", "parallel"):
        if op == "parallel" and links:
            sw_a, _pa, sw_b, _pb = links[x % len(links)]
        else:
            sw_a, sw_b = switches[x % len(switches)], switches[y % len(switches)]
        port_a, port_b = free_port(topo, sw_a), free_port(topo, sw_b)
        if sw_a != sw_b and port_a is not None and port_b is not None:
            topo.add_link(sw_a, port_a, sw_b, port_b)


def assert_tree_equals_oracle(topo, tree, want, pick):
    """A kernel tree is the oracle's: ``dist`` in level order, parent
    lists materialised in order, levels and masks that agree with
    ``dist``, and every walk-back with every rng kind, rng end state
    included."""
    assert tree.source == want.source
    assert list(tree.dist.items()) == list(want.dist.items())
    assert all(type(d) is float for d in tree.dist.values())
    assert [(sw, tree.parents_of(sw)) for sw in tree.dist if sw != tree.source] == \
        list(want.parents.items())
    assert [sw for level in tree.levels for sw in level] == list(tree.dist)
    for depth, (level, mask) in enumerate(zip(tree.levels, tree.masks)):
        assert {tree.dist[sw] for sw in level} == {float(depth)}
        assert topo.index.switches_in(mask) == set(level)
    mine, theirs = random.Random(pick), random.Random(pick)
    stable = StablePathRng(f"{pick}:{tree.source}")
    for dst in tree.dist:
        assert tree.path_to(dst) == want.path_to(dst)
        assert tree.path_to(dst, rng=mine) == want.path_to(dst, rng=theirs)
        assert tree.path_to(dst, rng=stable) == want.path_to(dst, rng=stable)
    assert mine.getstate() == theirs.getstate()
    assert tree.path_to("no-such-switch") is None


def assert_searches_match_oracle(topo, src, dst, hops, pick):
    """Full, ``stop`` and ``avoid`` (every cable of each hop) searches
    from ``src`` against the dict BFS."""
    keys = {link.key() for x, y in hops for link in topo.links_between(x, y)}
    assert_tree_equals_oracle(topo, topo.sssp_tree(src), ref.bfs_tree(topo, src), pick)
    for stop in (dst, src):
        assert_tree_equals_oracle(
            topo, topo.sssp_tree(src, stop=stop), ref.bfs_tree(topo, src, stop=stop), pick
        )
        assert_tree_equals_oracle(
            topo,
            topo.sssp_tree(src, avoid=hops, stop=stop),
            ref.bfs_tree(topo, src, avoid=keys, stop=stop),
            pick,
        )
    assert_tree_equals_oracle(
        topo, topo.sssp_tree(src, avoid=hops), ref.bfs_tree(topo, src, avoid=keys), pick
    )


def assert_kernel_matches_reference(topo, pick, service):
    switches = sorted(topo.switches)
    for sw in switches:
        assert topo.neighbors(sw) == ref.neighbors(topo, sw)
        assert list(topo.links_of(sw)) == list(ref.links_of(topo, sw))
    assert topo.neighbors("no-such-switch") == []

    rng = random.Random(pick)
    for _ in range(3):
        src, dst = rng.choice(switches), rng.choice(switches)

        assert topo.switch_distances(src) == ref.switch_distances(topo, src)

        tree = topo.sssp_tree(src)
        assert_tree_equals_oracle(topo, tree, ref.sssp_tree(topo, src), pick)
        # A primary's hops plus a random cable's, as backup_path cuts them.
        cut = ref.shortest_switch_path(topo, src, dst, rng=random.Random(pick)) or [src]
        hops = list(zip(cut, cut[1:]))
        if topo.links:
            link = rng.choice(topo.links)
            hops.append((link.b.switch, link.a.switch))
        assert_searches_match_oracle(topo, src, dst, hops, pick)

        assert topo.shortest_switch_path(src, dst) == \
            ref.shortest_switch_path(topo, src, dst)
        mine, theirs = random.Random(pick), random.Random(pick)
        assert topo.shortest_switch_path(src, dst, rng=mine) == \
            ref.shortest_switch_path(topo, src, dst, rng=theirs)
        assert topo.shortest_switch_path(src, dst, rng=mine, tree=tree) == \
            ref.shortest_switch_path(topo, src, dst, rng=theirs)
        assert mine.getstate() == theirs.getstate()
        stable = StablePathRng(f"{pick}:{src}:{dst}")
        assert topo.shortest_switch_path(src, dst, rng=stable) == \
            ref.shortest_switch_path(topo, src, dst, rng=stable)

        # Re-priced cables: the backup penalty on a primary, and odd
        # float costs (cheaper and dearer than a hop) on random cables.
        primary = ref.shortest_switch_path(topo, src, dst) or [src]
        penalised = {
            link.key(): ref.BACKUP_LINK_PENALTY
            for here, there in zip(primary, primary[1:])
            for link in topo.links_between(here, there)
        }
        odd = {
            link.key(): rng.choice((0.5, 1.0, 2.5, 100.0))
            for link in rng.sample(topo.links, min(4, len(topo.links)))
        }
        for costs in (penalised, odd, {}):
            mine, theirs = random.Random(pick), random.Random(pick)
            assert topo.shortest_switch_path(
                src, dst, rng=mine, link_costs=costs
            ) == ref.shortest_switch_path(
                topo, src, dst, rng=theirs, link_costs=costs
            )
            assert mine.getstate() == theirs.getstate()

        for k in (1, 4, 8):
            assert topo.k_shortest_switch_paths(src, dst, k) == \
                ref.k_shortest_switch_paths(topo, src, dst, k)

        for s, eps in ((2, 1), (1, 0), (3, 2)):
            mine, theirs = random.Random(pick), random.Random(pick)
            assert build_path_graph(topo, src, dst, s, eps, rng=mine) == \
                ref.build_path_graph(topo, src, dst, s, eps, rng=theirs)
            assert mine.getstate() == theirs.getstate()
        # The served form: shared tree, tree-backed distances, stable rng.
        assert service.path_graph(topo, src, dst, 2, 1) == ref.build_path_graph(
            topo, src, dst, 2, 1, rng=service.rng_for(src, dst, 2, 1)
        )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kind=st.sampled_from(["jellyfish", "fat_tree", "cube"]),
    a=st.integers(0, 50),
    b=st.integers(0, 50),
    seed=st.integers(0, 10**6),
    ops=st.lists(
        st.tuples(
            st.sampled_from(
                ["parallel", "add_link", "remove_link", "remove_switch", "cycle_switch"]
            ),
            st.integers(0, 10**6),
            st.integers(0, 10**6),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_kernel_equals_seed_algorithms_under_interleaved_mutation(
    kind, a, b, seed, ops
):
    topo = make_view(kind, a, b, seed)
    # One service for the whole run: mutations behind its back must move
    # its (uid, topo_version) epoch, never serve a stale tree.
    service = PathService(seed=seed)
    assert_kernel_matches_reference(topo, seed, service)
    for op, x, y in ops:
        mutate(topo, op, x, y)
        assert_kernel_matches_reference(topo, x, service)
    clone = topo.copy()
    assert clone.uid != topo.uid
    assert_kernel_matches_reference(clone, seed, service)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kind=st.sampled_from(["jellyfish", "fat_tree", "cube"]),
    a=st.integers(0, 50),
    b=st.integers(0, 50),
    seed=st.integers(0, 10**6),
    bundles=st.lists(st.integers(0, 10**6), max_size=4),
    pick=st.integers(0, 10**6),
)
def test_yen_equals_seed_for_every_k_up_to_8(kind, a, b, seed, bundles, pick):
    """Yen stops its spur searches once enough candidates as short as the
    first path are queued; the list is still seed Yen's for every k,
    parallel cables included."""
    topo = make_view(kind, a, b, seed)
    for x in bundles:
        mutate(topo, "parallel", x, 0)
    rng = random.Random(pick)
    switches = sorted(topo.switches)
    for _ in range(4):
        src, dst = rng.choice(switches), rng.choice(switches)
        for k in range(1, 9):
            assert topo.k_shortest_switch_paths(src, dst, k) == \
                ref.k_shortest_switch_paths(topo, src, dst, k)


#: Names whose string order is neither the order nor the reverse order
#: of their bits: the spur-search test gives them bits in list order.
SPUR_NAMES = ["yen-s9", "yen-s10", "yen-b", "yen-a2", "yen-a10", "yen-z", "yen-m", "yen-s1"]


@settings(max_examples=200, deadline=None)
@given(
    order=st.permutations(SPUR_NAMES),
    n=st.integers(3, len(SPUR_NAMES)),
    cables=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), min_size=4, max_size=24),
    cycled=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=3),
    queries=st.lists(
        st.tuples(st.integers(0, 99), st.integers(0, 99),
                  st.lists(st.integers(0, 99), max_size=2),
                  st.lists(st.integers(0, 99), max_size=2)),
        min_size=1,
        max_size=8,
    ),
)
def test_spur_search_equals_the_sorted_neighbour_bfs(order, n, cables, cycled, queries):
    """Yen's spur search walks switch bits; the path must be the one the
    seed's BFS over sorted neighbours finds (the smallest names, position
    by position, among the shortest), on multigraphs whose switches were
    removed and re-added, with banned switches (the root path) and
    banned first hops."""
    for name in SPUR_NAMES:
        Topology().add_switch(name, 1)  # only the first call hands out bits
    names = order[:n]
    topo = Topology()
    for name in names:
        topo.add_switch(name, 64)
    for x, y in cables:
        sw_a, sw_b = names[x % n], names[y % n]
        if sw_a != sw_b:
            topo.add_link(sw_a, free_port(topo, sw_a), sw_b, free_port(topo, sw_b))
    for x, keep in cycled:
        switch = names[x % n]
        cycle_switch(topo, switch, keep % (topo.degree(switch) + 1))
    unbanned = [(x, y, (), ()) for x in range(n) for y in range(n)]
    for x, y, banned, first in unbanned + queries:
        src, dst = names[x % n], names[y % n]
        banned_nodes = [names[i % n] for i in banned]
        first_hops = {names[i % n] for i in first}
        assert topo._shortest_avoiding(src, dst, banned_nodes, first_hops) == \
            ref._shortest_avoiding(
                topo, src, dst, set(banned_nodes), {(src, sw) for sw in first_hops}
            )


def assert_links_within_match_reference(topo, subset):
    got = topo.links_within(topo.index.mask_of(subset))
    assert len(got) == len(set(got))
    assert set(got) == set(ref.links_within(topo, subset))


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kind=st.sampled_from(["jellyfish", "fat_tree", "cube"]),
    a=st.integers(0, 50),
    b=st.integers(0, 50),
    seed=st.integers(0, 10**6),
    bundles=st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
    picks=st.lists(st.integers(0, 10**6), max_size=12),
    x=st.integers(0, 10**6),
)
def test_links_within_a_mask_equals_the_set_induction(kind, a, b, seed, bundles, picks, x):
    """``links_within`` takes a mask of switch bits and keeps each
    member's cached ``a``-side edges whose far end is a member too; as
    a set it must be the seed's double walk over the same switches.  Every subset
    holds both ends of a parallel bundle, and is checked again after
    one of the bundle's cables, then one of its switches' cables, is
    unplugged (each drops a cached ``a``-side list)."""
    topo = make_view(kind, a, b, seed)
    for y in bundles:
        mutate(topo, "parallel", y, 0)
    switches = sorted(topo.switches)
    pairs = [(l.a.switch, l.b.switch) for l in topo.links]
    doubled = sorted({pair for pair in pairs if pairs.count(pair) > 1})
    bundle = doubled[x % len(doubled)]
    subset = {switches[i % len(switches)] for i in picks} | set(bundle)
    for whole in (subset, set(switches), {bundle[0]}, set()):
        assert_links_within_match_reference(topo, whole)
    for sw in bundle:
        link = next(topo.links_of(sw))
        topo.remove_link(link.a.switch, link.a.port, link.b.switch, link.b.port)
        assert_links_within_match_reference(topo, subset)
        assert_links_within_match_reference(topo, set(switches))


def assert_backup_and_detours_match_reference(topo, primary, pick, service):
    mine, theirs = random.Random(pick), random.Random(pick)
    assert backup_path(topo, primary, mine) == ref.backup_path(topo, primary, theirs)
    assert mine.getstate() == theirs.getstate()
    stable = StablePathRng(f"{pick}:{primary[0]}:{primary[-1]}")
    assert backup_path(topo, primary, stable) == ref.backup_path(topo, primary, stable)
    assert backup_path(topo, primary) == ref.backup_path(topo, primary)
    for s, eps in ((2, 1), (1, 0), (3, 2)):
        want = ref.detour_vertices(
            topo, primary, s, eps, lambda source: ref.switch_distances(topo, source)
        )
        assert detour_vertices(topo, primary, s, eps) == want
        assert detour_vertices(
            topo, primary, s, eps,
            level_masks=lambda source: service.tree(topo, source).masks,
        ) == want


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kind=st.sampled_from(["jellyfish", "fat_tree", "cube"]),
    a=st.integers(0, 50),
    b=st.integers(0, 50),
    seed=st.integers(0, 10**6),
    parallel=st.lists(st.integers(0, 10**6), max_size=6),
    tail=st.integers(0, 3),
)
def test_backup_bfs_equals_the_penalised_dijkstra(kind, a, b, seed, parallel, tail):
    """``backup_path`` is a BFS over the view minus the primary's cables,
    with the penalised Dijkstra left only as its fallback: the answer and
    every draw of the walk-back must be the seed search's, and the mask
    detour scan must find the seed's detours with either level-mask
    provider.  Extra parallel cables, plus one doubled
    hop per primary, check that every cable of a primary hop is avoided;
    a pendant tail, hung off the fabric by a bridge, makes every primary
    into it separate its ends, so the fallback runs."""
    topo = make_view(kind, a, b, seed)
    for x in parallel:
        mutate(topo, "parallel", x, 0)
    switches = sorted(topo.switches)
    end = switches[seed % len(switches)]
    for i in range(tail):
        port = free_port(topo, end)
        if port is None:
            break
        topo.add_switch(f"tail{i}", 4)
        topo.add_link(end, port, f"tail{i}", 1)
        end = f"tail{i}"
    service = PathService(seed=seed)
    rng = random.Random(seed)
    switches = sorted(topo.switches)
    for k in range(6):
        src = rng.choice(switches)
        dst = end if k % 3 == 2 else rng.choice(switches)
        pick = rng.randrange(10**6)
        # A primary as the controller draws one: a seeded walk-back.
        primary = ref.shortest_switch_path(topo, src, dst, rng=random.Random(pick))
        if primary is None:
            continue
        assert_backup_and_detours_match_reference(topo, primary, pick, service)
        if len(primary) < 2:
            continue
        hop = pick % (len(primary) - 1)
        here, there = primary[hop], primary[hop + 1]
        doubled = topo.copy()
        port_a, port_b = free_port(doubled, here), free_port(doubled, there)
        if port_a is not None and port_b is not None:
            doubled.add_link(here, port_a, there, port_b)
            assert_backup_and_detours_match_reference(doubled, primary, pick, service)


def installed(agent, dst):
    """One PathTable entry as plain tag tuples: (primaries, backup)."""
    entry = agent.path_table.entry(dst)
    if entry is None:
        return None
    backup = entry.backup.tags if entry.backup is not None else None
    return [path.tags for path in entry.primaries], backup


def seed_install(agent, dst, rng):
    """What ``_install_paths(dst)`` must install on the agent's fragment
    as it stands: seed Yen's paths and the backup of the seed builder
    drawing from ``rng``.  None when it installs nothing."""
    fragment = agent.topo_cache.fragment
    if not (fragment.has_host(agent.name) and fragment.has_host(dst)):
        return None
    src_sw = fragment.host_port(agent.name).switch
    dst_sw = fragment.host_port(dst).switch
    primaries = [
        tuple(fragment.encode_path(agent.name, path, dst))
        for path in ref.k_shortest_switch_paths(fragment, src_sw, dst_sw, K_PATHS)
    ]
    graph = ref.build_path_graph(
        fragment, src_sw, dst_sw, PATH_GRAPH_S, PATH_GRAPH_EPSILON, rng=rng
    )
    backup = None
    if graph is not None and graph.backup is not None:
        backup = tuple(fragment.encode_path(agent.name, list(graph.backup), dst))
    if not primaries and backup is None:
        return None
    return primaries, backup


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kind=st.sampled_from(["jellyfish", "fat_tree", "cube"]),
    a=st.integers(0, 50),
    b=st.integers(0, 50),
    seed=st.integers(0, 10**6),
    steps=st.lists(
        st.tuples(
            st.sampled_from(
                ["reply", "reply", "news", "link-down", "link-up", "switch-down"]
            ),
            st.integers(0, 10**6),
            st.integers(0, 10**6),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_install_paths_draws_from_the_agent_rng_like_the_seed_builder(
    kind, a, b, seed, steps
):
    """``_install_paths`` takes Yen's first path and the primary from one
    early-stopping tree and the backup from a BFS.  After every step of
    any mix of controller replies, failure news and topology patches
    (whose refresh reinstalls only the degraded entries), every PathTable
    entry and ``agent.rng`` must be what seed Yen and the seed builder
    give on the same fragment."""
    truth = make_view(kind, a, b, seed)
    for x in range(seed % 4):
        mutate(truth, "parallel", seed + x, 0)
    hosts = sorted(truth.hosts)
    switches = sorted(truth.switches)
    cables = sorted((l.a.switch, l.a.port, l.b.switch, l.b.port) for l in truth.links)
    me = hosts[seed % len(hosts)]
    others = [host for host in hosts if host != me]
    agent = HostAgent(me, EventLoop(), rng=random.Random(seed))
    home = truth.host_port(me)
    agent.topo_cache.record_attachment(me, home.switch, home.port)
    refreshes = []
    refresh = agent._refresh_cached_paths

    def spy():  # the entries a patch's refresh starts from
        refreshes.append(
            {dst: installed(agent, dst) for dst in agent.path_table.destinations()}
        )
        refresh()

    agent._refresh_cached_paths = spy
    for version, (op, x, y) in enumerate(steps, start=1):
        twin = random.Random()
        twin.setstate(agent.rng.getstate())
        if op == "reply":
            dst = others[x % len(others)]
            src_ref, dst_ref = truth.host_port(me), truth.host_port(dst)
            graph = build_path_graph(
                truth, src_ref.switch, dst_ref.switch, rng=random.Random(y)
            )
            if graph is None:
                continue
            want = {d: installed(agent, d) for d in agent.path_table.destinations()}
            agent.topo_cache.merge_reply(PathReply(
                nonce=version, src=me, dst=dst, found=True,
                src_attachment=(src_ref.switch, src_ref.port),
                dst_attachment=(dst_ref.switch, dst_ref.port),
                edges=graph.edges, version=version,
            ))
            agent._install_paths(dst)
            fresh = seed_install(agent, dst, twin)
            if fresh is not None:
                want[dst] = fresh
        elif op == "news":
            sw_a, port_a, sw_b, port_b = cables[x % len(cables)]
            switch, port = (sw_a, port_a) if y % 2 else (sw_b, port_b)
            agent._on_news(
                PortStateNotification(switch=switch, port=port, up=False, seq=version)
            )
            want = {d: installed(agent, d) for d in agent.path_table.destinations()}
        else:
            args = (switches[x % len(switches)],) if op == "switch-down" else cables[x % len(cables)]
            agent._on_patch(TopologyPatch(
                version=version, changes=(TopologyChange(op, args),), origin="ctl"
            ))
            want = {}
            for dst, entry in refreshes.pop().items():
                if entry is not None and len(entry[0]) >= K_PATHS:
                    want[dst] = entry
                else:
                    want[dst] = seed_install(agent, dst, twin) or entry
        assert {d: installed(agent, d) for d in agent.path_table.destinations()} == want
        assert agent.rng.getstate() == twin.getstate()


MERGE_SWITCHES = [f"S{i}" for i in range(6)]


def reply_edge(kind, i, port_a, hop, port_b):
    """A reply edge over six switches and ports 1..4; for two ``kind``
    values out of sixty a self-cable or one end out of range."""
    sw_a, sw_b = MERGE_SWITCHES[i], MERGE_SWITCHES[(i + hop) % 6]
    if kind == 0:
        return (sw_a, port_a, sw_a, port_b)
    if kind == 1:
        return (sw_a, port_a, sw_b, (0, 255)[port_b % 2])
    return (sw_a, port_a, sw_b, port_b)


def intern_half_the_edges():
    """A switch index with every well-formed edge with an odd port sum
    among its interned cables, as another host's fragment in the same
    fabric would leave it: ``merge_links`` then meets both cables it has
    interned before and cables it has not."""
    index = SwitchIndex()
    for i, hop, port_a, port_b in itertools.product(
        range(6), range(1, 6), range(1, 5), range(1, 5)
    ):
        if (port_a + port_b) % 2:
            edge = reply_edge(2, i, port_a, hop, port_b)
            Topology(index).merge_links([edge], FRAGMENT_PORTS)
    return index


def merge_state(agent):
    """Everything a merge may touch, dict order included."""
    cache, topo = agent.topo_cache, agent.topo_cache.fragment
    return (
        list(topo._switch_ports.items()),
        [(sw, list(adj)) for sw, adj in topo._adj.items()],
        [(sw, topo.index.bit[sw]) for sw in topo._switch_ports],
        list(topo._nmask.items()),
        topo.topo_version,
        list(topo._links.items()),
        list(topo._port_use.items()),
        list(topo._hosts.items()),
        list(topo._hosts_on_switch.items()),
        cache.version,
        set(cache.dead_ports),
        {d: installed(agent, d) for d in agent.path_table.destinations()},
        agent.rng.getstate(),
    )


def merge_step(agent, index, op, edges, x):
    """Apply one step; the error text if it raised ``TopologyError``."""
    switch = MERGE_SWITCHES[x % 6]
    port = 1 + (x >> 3) % 4
    try:
        if op == "reply":
            dst = f"h{1 + x % 3}"
            attach = [None, *[(sw, p) for sw in MERGE_SWITCHES for p in (1, 2, 3, 4)]]
            agent.topo_cache.merge_reply(PathReply(
                nonce=index, src=agent.name, dst=dst, found=True,
                src_attachment=attach[(x >> 2) % len(attach)],
                dst_attachment=attach[(x >> 7) % len(attach)],
                edges=tuple(edges), version=x % 20,
            ))
            agent._install_paths(dst)
        elif op in ("news-down", "news-up"):
            agent._on_news(PortStateNotification(
                switch=switch, port=port, up=op == "news-up", seq=index
            ))
        else:
            if op == "switch-up":
                args = (switch, 2 + x % 2)  # few ports: later edges overflow
            elif op == "switch-down":
                args = (switch,)
            elif edges:
                args = edges[0]
            else:
                return None
            agent._on_patch(TopologyPatch(
                version=index, changes=(TopologyChange(op, args),), origin="ctl"
            ))
    except TopologyError as exc:
        return str(exc)
    return None


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10**6),
    steps=st.lists(
        st.tuples(
            st.sampled_from([
                "reply", "reply", "reply", "news-down", "news-up",
                "link-down", "link-up", "switch-down", "switch-up", "switch-up",
            ]),
            st.lists(
                st.builds(
                    reply_edge,
                    st.integers(0, 59),
                    st.integers(0, 5),
                    st.integers(1, 4),
                    st.integers(1, 5),
                    st.integers(1, 4),
                ),
                max_size=8,
            ),
            st.integers(0, 10**6),
        ),
        min_size=1,
        max_size=14,
    ),
)
def test_merge_links_equals_the_per_edge_merge(seed, steps):
    """``TopoCache.merge_reply`` folds each reply in with one
    ``merge_links`` loop over interned cables.  Replies here repeat
    cables, contradict them (a port cabled elsewhere), resend cables
    that news or a patch took down, move hosts and carry bad edges;
    patches add small switches whose ports a later edge overflows.
    After every step the fragment (adjacency order, bits, masks,
    ``topo_version``, cables, occupancy, hosts), the cache's version
    and dead ports, the installed routes and the rng must be what the
    seed's per-edge merge leaves, and a bad edge raises the same
    ``TopologyError``."""
    index = intern_half_the_edges()
    agent, seed_agent = (
        HostAgent("h0", EventLoop(), rng=random.Random(seed), index=index)
        for _ in range(2)
    )
    seed_cache = seed_agent.topo_cache
    seed_cache.merge_reply = lambda reply: ref.merge_reply(seed_cache, reply)
    for index, (op, edges, x) in enumerate(steps, start=1):
        error = merge_step(agent, index, op, edges, x)
        assert merge_step(seed_agent, index, op, edges, x) == error
        assert merge_state(agent) == merge_state(seed_agent)


def seed_keeps(trees, sw_a, sw_b):
    """The seed rule on pre-down dict trees: a tree survives a link-down
    unless the cable's nearer end was the first parent of the other."""
    kept = set()
    for source, tree in trees.items():
        dist = tree.dist
        if sw_a in dist and dist[sw_a] != dist[sw_b]:
            u, v = (sw_a, sw_b) if dist[sw_a] < dist[sw_b] else (sw_b, sw_a)
            if tree.parents[v][0] == u:
                continue
        kept.add(source)
    return kept


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kind=st.sampled_from(["jellyfish", "fat_tree", "cube"]),
    a=st.integers(0, 50),
    b=st.integers(0, 50),
    seed=st.integers(0, 10**6),
    parallel=st.lists(st.integers(0, 10**6), max_size=4),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["down", "up", "up-flipped", "cycle", "query", "query"]),
            st.integers(0, 10**6),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_service_keeps_the_trees_the_seed_rule_keeps(kind, a, b, seed, parallel, steps):
    """Across link-down / link-up sequences (a link-up of the last downed
    cable as the next mutation is an undo; from the other side it may
    flush), the path service keeps exactly the trees the seed rule on
    the dict oracle keeps, an undo brings back exactly those, and after
    every step each memoised tree is the dict BFS of the current view."""
    topo = make_view(kind, a, b, seed)
    for x in parallel:
        mutate(topo, "parallel", x, 0)
    service = PathService(seed=seed)
    switches = sorted(topo.switches)
    downed = []
    kept_at_down = None
    for op, x in steps:
        if op == "down":
            cables = sorted((l.a.switch, l.a.port, l.b.switch, l.b.port) for l in topo.links)
            if not cables:
                continue
            cable = cables[x % len(cables)]
            before = {src: ref.bfs_tree(topo, src) for src in service._trees}
            undoable = service._epoch == (topo.uid, topo.topo_version)
            topo.remove_link(*cable)
            service.note_topology_change(topo, "link-down", cable)
            kept_at_down = seed_keeps(before, cable[0], cable[2]) if undoable else set()
            assert set(service._trees) == kept_at_down
            downed.append(cable)
        elif op.startswith("up") and downed:
            sw_a, port_a, sw_b, port_b = cable = downed.pop()
            if op == "up-flipped":
                cable = (sw_b, port_b, sw_a, port_a)
            restores = service.stats.restores
            undo = service._outage is not None and service._outage.epoch == (
                topo.uid, topo.topo_version
            )
            topo.add_link(*cable)
            service.note_topology_change(topo, "link-up", cable)
            undone = service.stats.restores == restores + 1
            assert undone >= (undo and op == "up")
            assert set(service._trees) == (kept_at_down if undone else set())
        elif op == "cycle":
            # The switch comes back with its bit; the service flushes.
            switch = switches[x % len(switches)]
            cycle_switch(topo, switch, topo.degree(switch))
            service.note_topology_change(topo, "switch-up", (switch,))
            assert not service._trees
        else:
            for src in (switches[x % len(switches)], switches[(x // 7) % len(switches)]):
                service.tree(topo, src)
        for src, tree in service._trees.items():
            assert_tree_equals_oracle(topo, tree, ref.bfs_tree(topo, src), x)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kind=st.sampled_from(["jellyfish", "fat_tree", "cube"]),
    a=st.integers(0, 50),
    b=st.integers(0, 50),
    seed=st.integers(0, 10**6),
    x=st.integers(0, 10**6),
    y=st.integers(0, 10**6),
    told=st.booleans(),
)
def test_service_flushes_kept_trees_before_a_fresh_link_up(kind, a, b, seed, x, y, told):
    """A kept tree reads the live wiring, so it is only sound under the
    (uid, topo_version) the service vouches for.  After a link-down keeps
    some trees, a link-up of a *different* cable is no undo: whether the
    service is told (``note_topology_change``) or not (a direct edit),
    every tree it serves next is a fresh build equal to the dict BFS of
    the new wiring, never a kept tree walked against it."""
    topo = make_view(kind, a, b, seed)
    service = PathService(seed=seed)
    switches = sorted(topo.switches)
    for src in switches:
        service.tree(topo, src)
    cables = sorted((l.a.switch, l.a.port, l.b.switch, l.b.port) for l in topo.links)
    downed = cables[x % len(cables)]
    topo.remove_link(*downed)
    service.note_topology_change(topo, "link-down", downed)
    kept = dict(service._trees)
    # Any spare ports but the downed cable's own: a new cable, no undo.
    spare = [
        (sw, port)
        for sw in switches
        for port in range(1, topo.num_ports(sw) + 1)
        if topo.peer(sw, port) is None and (sw, port) not in (downed[:2], downed[2:])
    ]
    end_a = spare[y % len(spare)]
    end_b = next(end for end in spare[y % len(spare):] + spare if end[0] != end_a[0])
    fresh = end_a + end_b
    topo.add_link(*fresh)
    if told:
        service.note_topology_change(topo, "link-up", fresh)
        assert service._trees == {} and service.stats.restores == 0
    for src in switches:
        tree = service.tree(topo, src)
        assert tree is not kept.get(src)
        assert_tree_equals_oracle(topo, tree, ref.bfs_tree(topo, src), y)
    assert service.stats.tree_builds == 2 * len(switches)
