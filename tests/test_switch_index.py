"""Switch bits and interned cables belong to a fabric's switch index.

Three properties: topologies share an index exactly where they share a
fabric (copies, shard subviews, replicas, host fragments), not with
anything else the process built; every answer is the same whether or
not the process first built an unrelated 5 000-switch topology; and a
fabric whose switches are replaced, each under a new factory ID, answers
like a fresh fabric with the final wiring.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import PATH_GRAPH_EPSILON, PATH_GRAPH_S
from repro.core.fabric import DumbNetFabric
from repro.core.pathservice import PathService
from repro.core.pathshard import PodMap
from repro.topology import Topology, cube, fat_tree, jellyfish, leaf_spine

# ----------------------------------------------------------------------
# sharing by construction


def test_a_fabric_shares_its_index_with_every_host_fragment():
    fabric = DumbNetFabric.from_topology(
        leaf_spine(2, 3, 2, num_ports=8), standbys=("h1_0",), seed=1
    )
    index = fabric.topology.index
    assert all(a.topo_cache.fragment.index is index for a in fabric.agents.values())
    # The discovered view has an index of its own; its replicas share it.
    view = fabric.controller.view
    assert view.index is not index
    assert all(v.index is view.index for v in fabric.plane.store.views.values())
    assert len(index.names) == len(view.index.names) == len(view.switches)


def test_copies_and_subviews_share_a_bare_topology_gets_a_fresh_one():
    view = fat_tree(4)
    assert view.copy().index is view.index
    assert PodMap.from_view(view).subview(view, "pod0").index is view.index
    assert Topology().index is not Topology().index
    fabric = DumbNetFabric.from_topology(view, bootstrap="blueprint", seed=1)
    assert fabric.controller.view.index is view.index


def test_interned_cables_are_per_index():
    """Fragments of one fabric share a cable value, two fabrics do not."""
    one, two = fat_tree(4), fat_tree(4)
    edge = ("core0", 1, "agg0_0", 1)
    a, b, c = Topology(one.index), Topology(one.index), Topology(two.index)
    for fragment in (a, b, c):
        fragment.merge_links([edge], 4)
    assert a.links[0] is b.links[0] is one.index.cables[edge][0]
    assert c.links[0] is two.index.cables[edge][0]
    assert c.links[0] == a.links[0] and c.links[0] is not a.links[0]


# ----------------------------------------------------------------------
# answers do not depend on what else the process built

#: Each example's two worlds get fresh, equally long name prefixes, so
#: in a process-wide bit table their names would first appear at
#: different offsets.
_WORLDS = itertools.count()


def _view(kind, a, b, seed):
    if kind == "jellyfish":
        degree = 2 + b % 3
        return jellyfish(6 + a % 9, degree, num_ports=degree + 5, seed=seed)
    if kind == "fat_tree":
        return fat_tree(4, num_ports=8)
    return cube([2 + a % 3, 2 + b % 2], hosts_per_switch=1, num_ports=9)


def _renamed(topo, prefix):
    """``topo``'s switch graph under ``prefix + name``, in wiring order
    (a common prefix keeps every name comparison)."""
    out = Topology()
    for sw in topo.switches:
        out.add_switch(prefix + sw, topo.num_ports(sw))
    for link in topo.links:
        out.add_link(prefix + link.a.switch, link.a.port, prefix + link.b.switch, link.b.port)
    return out


class _UnprefixedRng:
    """The stable tie-breaker of the unprefixed names."""

    def __init__(self, rng, cut):
        self.rng, self.cut = rng, cut

    def choice(self, seq):
        by_name = {sw[self.cut:]: sw for sw in seq}
        return by_name[self.rng.choice(list(by_name))]


class _WorldService(PathService):
    """A path service whose tie-breaks ignore the world prefix."""

    def __init__(self, cut):
        super().__init__(capacity=16, seed=5)
        self.cut = cut

    def rng_for(self, src, dst, s, epsilon):
        rng = super().rng_for(src[self.cut:], dst[self.cut:], s, epsilon)
        return _UnprefixedRng(rng, self.cut)


def _world_answers(base, prefix, steps):
    """Every answer and decision of one world, names unprefixed."""
    cut = len(prefix)
    view, service = _renamed(base, prefix), _WorldService(cut)
    names = sorted(view.switches)
    out = []

    def strip(seq):
        return None if seq is None else tuple(sw[cut:] for sw in seq)

    for op, x, y, z in steps:
        cables = sorted((l.a.switch, l.a.port, l.b.switch, l.b.port) for l in view.links)
        if op == "flap" and cables:
            cable = cables[x % len(cables)]
            for change in ("link-down", "link-up"):
                (view.remove_link if change == "link-down" else view.add_link)(*cable)
                service.note_topology_change(view, change, cable)
                out.append((
                    change,
                    sorted(sw[cut:] for sw in service._trees),
                    sorted(strip(key[:2]) for key in service._graphs),
                    service.stats.as_dict(),
                ))
            continue
        src, dst = names[x % len(names)], names[y % len(names)]
        graph = service.path_graph(view, src, dst, PATH_GRAPH_S, PATH_GRAPH_EPSILON)
        if graph is not None:
            out.append((
                "graph",
                strip((graph.src_switch, graph.dst_switch)),
                strip(graph.primary),
                strip(graph.backup),
                graph.mask,
                graph.mask.bit_length(),
                sorted(strip(graph.nodes)),
                [(a[cut:], pa, b[cut:], pb) for a, pa, b, pb in graph.edges],
            ))
        tree = service.tree(view, src)
        out.append((
            "tree",
            [strip(level) for level in tree.levels],
            [(m, m.bit_length()) for m in tree.masks],
            [(sw[cut:], strip(tree.parents_of(sw))) for sw in tree.dist],
        ))
        out.append(("yen", [strip(p) for p in view.k_shortest_switch_paths(src, dst, 1 + z % 5)]))
        banned = names[z % len(names):][:z % 3]
        first_hops = names[y % len(names):][:1 + z % 2]
        out.append(("spur", strip(view._shortest_avoiding(src, dst, banned, first_hops))))
    return out


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["jellyfish", "fat_tree", "cube"]),
    a=st.integers(0, 20),
    b=st.integers(0, 20),
    seed=st.integers(0, 2**16),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["query", "query", "flap"]),
            st.integers(0, 999),
            st.integers(0, 999),
            st.integers(0, 999),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_answers_ignore_an_unrelated_5000_switch_topology(kind, a, b, seed, steps):
    """Path graphs (masks and their ``bit_length()`` included), tree
    levels, level masks and parent lists, Yen lists, spur paths and the
    path service's keep / evict decisions across link flaps are the same
    in a world built on its own and in one built after 5 000 unrelated
    switch names."""
    base = _view(kind, a, b, seed)
    world = next(_WORLDS)
    alone = _world_answers(base, f"a{world}.", steps)
    unrelated = Topology()
    for i in range(5000):
        unrelated.add_switch(f"unrelated{world}-{i}", 1)
    behind = _world_answers(base, f"b{world}.", steps)
    assert alone == behind
    width = len(base.switches)
    # Every path-graph mask is as wide as the view, no wider.
    assert all(entry[5] <= width for entry in alone if entry[0] == "graph")


# ----------------------------------------------------------------------
# switch churn: replaced switches keep their bits, answers do not move

REPLACEMENTS = 8


def _live_wiring(fabric):
    """The controller view's live switches, cables in wiring order (so
    every adjacency list keeps its order) and hosts in fabric order."""
    view, final = fabric.controller.view, Topology()
    for sw in view.switches:
        if view.degree(sw) or view.hosts_on(sw):
            final.add_switch(sw, view.num_ports(sw))
    for link in view.links:
        final.add_link(link.a.switch, link.a.port, link.b.switch, link.b.port)
    for host in fabric.topology.hosts:
        ref = view.host_port(host)
        final.add_host(host, ref.switch, ref.port)
    return final


def _controller_answers(fabric):
    view, service = fabric.controller.view, fabric.controller.path_service
    live = [sw for sw in view.switches if view.degree(sw)]
    answers = {}
    for src, dst in itertools.product(live, repeat=2):
        graph = service.path_graph(view, src, dst, PATH_GRAPH_S, PATH_GRAPH_EPSILON)
        answers[src, dst] = (
            graph.primary, graph.backup, graph.nodes, graph.edges, graph.s, graph.epsilon
        )
        assert graph.mask.bit_length() <= len(view.index.names)
    return answers


def _host_answers(fabric):
    """Per (host, destination): the installed primaries as a set and the
    backup's hop count (which equal-cost backup a host drew depends on
    its rng's history)."""
    answers = {}
    for name, agent in fabric.agents.items():
        if name == fabric.controller_host:
            continue  # its own cache never applies the patches it floods
        for dst in agent.path_table.destinations():
            entry = agent.path_table.entry(dst)
            backup = entry.backup.switches if entry.backup is not None else ()
            answers[name, dst] = (
                frozenset(path.switches for path in entry.primaries), len(backup)
            )
    return answers


def test_replaced_switches_answer_like_a_fresh_fabric():
    """Replace spine1 with a new factory ID ``REPLACEMENTS`` times on one
    fabric (power the old one off, rack the new one on spare leaf ports).
    Every retired ID keeps its bit, so both indexes end
    ``REPLACEMENTS`` names wider than the live fabric; the controller's
    path graphs and the hosts' installed paths still equal those of a
    fresh fabric built with the final wiring."""
    fabric = DumbNetFabric.from_topology(
        leaf_spine(2, 3, 2, num_ports=16), warm=True, seed=3
    )
    current = "spine1"
    for r in range(REPLACEMENTS):
        fabric.fail_switch(current)
        fabric.run_until_idle()
        current = f"spine1-r{r}"
        fabric.hotplug_switch(current, 16, [(l + 1, f"leaf{l}", 5 + r) for l in range(3)])
        fabric.run_until_idle()
    fresh = DumbNetFabric.from_topology(
        _live_wiring(fabric), bootstrap="blueprint", warm=True, seed=3
    )
    assert len(fresh.topology.index.names) == 5
    assert len(fabric.topology.index.names) == 5 + REPLACEMENTS
    assert len(fabric.controller.view.index.names) == 5 + REPLACEMENTS
    assert _controller_answers(fabric) == _controller_answers(fresh)
    churned_hosts = _host_answers(fabric)
    assert len(churned_hosts) == 5 * 5
    assert churned_hosts == _host_answers(fresh)
