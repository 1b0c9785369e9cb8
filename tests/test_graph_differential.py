"""Path kernel == seed algorithms, under mutation.

``reference_graph.py`` holds the bodies ``Topology`` and
``build_path_graph`` had before the kernel rewrite.  The property below
wires random views (parallel cables included), interleaves queries with
``add_link`` / ``remove_link`` / ``remove_switch`` so every memo is
filled and then invalidated, and demands equal answers: same distances,
same parent lists *in the same order*, same paths for the same seeded
rng (and the rng left in the same state), same Yen lists, same
``PathGraph``.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_graph as ref
from repro.core.fabric import DumbNetFabric
from repro.core.pathgraph import build_path_graph
from repro.core.pathservice import PathService, StablePathRng
from repro.topology import cube, fat_tree, jellyfish


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
    elif op in ("add_link", "parallel"):
        if op == "parallel" and links:
            sw_a, _pa, sw_b, _pb = links[x % len(links)]
        else:
            sw_a, sw_b = switches[x % len(switches)], switches[y % len(switches)]
        port_a, port_b = free_port(topo, sw_a), free_port(topo, sw_b)
        if sw_a != sw_b and port_a is not None and port_b is not None:
            topo.add_link(sw_a, port_a, sw_b, port_b)


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

        tree, want = topo.sssp_tree(src), ref.sssp_tree(topo, src)
        assert list(tree.dist.items()) == list(want.dist.items())
        assert all(type(d) is float for d in tree.dist.values())
        assert list(tree.parents.items()) == list(want.parents.items())

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
                ["parallel", "add_link", "remove_link", "remove_switch"]
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


def test_install_paths_draws_from_the_agent_rng_like_the_seed_builder():
    """``_install_paths`` used to build a whole path graph just to read
    ``.backup``; the helper it calls now must leave ``agent.rng`` exactly
    where that build left it (two walk-backs, same order) and install the
    same backup."""
    fabric = DumbNetFabric(fat_tree(4), controller_host="h0_0_0", seed=3)
    fabric.adopt_blueprint()
    pairs = [("h1_0_0", "h3_1_1"), ("h2_1_0", "h0_1_1"), ("h1_1_1", "h1_0_1")]
    fabric.warm_paths(pairs)
    for src, dst in pairs:
        agent = fabric.agents[src]
        cache = agent.topo_cache
        twin = random.Random()
        twin.setstate(agent.rng.getstate())
        graph = ref.build_path_graph(
            cache.fragment,
            cache.attachment(src)[0],
            cache.attachment(dst)[0],
            s=agent.config.path_graph_s,
            epsilon=agent.config.path_graph_epsilon,
            rng=twin,
        )
        agent._install_paths(dst)
        assert agent.rng.getstate() == twin.getstate()
        installed = agent.path_table.entry(dst).backup
        if graph.backup is None:
            assert installed is None
        else:
            assert installed.tags == cache.encode(src, list(graph.backup), dst).tags
