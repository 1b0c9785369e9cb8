"""Flow-level engine == seed engine, exactly.

``reference_flowsim.py`` holds the solver and the two rebalancers as they
were before the hot-loop rewrite.  The properties below demand equal
answers -- the same floats in the same key order from the solver, the
same path on every flow and the same load / utilisation map from the
rebalancers -- and that nothing a flow or the candidate memo caches ever
disagrees with a ``FlowNet`` built fresh under the same failures.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_flowsim as ref
from repro.flowsim import (
    EcnAwareKPathPolicy,
    FairnessError,
    FlowNet,
    RebalancingKPathPolicy,
    max_min_rates,
)
from repro.flowsim.simulator import Flow
from repro.topology import fat_tree, jellyfish, leaf_spine

# ---------------------------------------------------------------------------
# solver


@st.composite
def solver_inputs(draw):
    """(routes, capacities, demands) with everything the solver's order
    and bookkeeping depend on: shuffled capacity order, links no route
    crosses, links shared by many routes, hairpins (a link twice), empty
    routes, external ``("zoom", fid)`` rows, and demand caps that are
    zero, tight (at or just off the fair share) or slack."""
    n_links = draw(st.integers(1, 7))
    links = [("tx", f"s{i // 2}", i) for i in range(n_links)] + [("htx", "h0")]
    capacity = st.sampled_from([1.0, 2.0, 3.0, 4.0, 7.5, 10.0, 1e9, 2.5e9]) | st.floats(
        0.1, 100.0, allow_nan=False
    )
    order = draw(st.permutations(links))
    capacities = {link: draw(capacity) for link in order}
    routes = {}
    for fid in range(draw(st.integers(0, 7))):
        key = ("zoom", fid) if draw(st.integers(0, 4)) == 0 else fid
        routes[key] = draw(st.lists(st.sampled_from(links), min_size=0, max_size=5))
    demands = {}
    for key, route in routes.items():
        kind = draw(st.sampled_from(["none", "none", "zero", "tight", "slack", "free"]))
        if kind == "zero":
            demands[key] = 0.0
        elif kind == "tight" and route:
            sharers = sum(1 for other in routes.values() if route[0] in other)
            share = capacities[route[0]] / max(1, sharers)
            demands[key] = share * draw(st.sampled_from([1.0, 1.0 - 1e-12, 1.0 + 1e-12, 0.5]))
        elif kind == "slack":
            demands[key] = 1e12
        elif kind == "free":
            demands[key] = draw(st.floats(0.0, 50.0, allow_nan=False))
    return routes, capacities, demands


#: Link sets of the capacity tables ``FlowNet`` builds for the solver.
SOLVER_NETS = {
    "fat_tree": lambda: fat_tree(4),
    "leaf_spine": lambda: leaf_spine(2, 3, 3, num_ports=16),
}


@st.composite
def flownet_solver_inputs(draw):
    """(routes, capacities, demands) as the simulator hands them over:
    ``capacities`` is a ``FlowNet``'s validated table (some ports or
    switches overridden), routes are its walks in shuffled order --
    shortest paths, longer candidates and hairpins that cross one
    directed link twice -- plus external rows and demand caps."""
    topology = SOLVER_NETS[draw(st.sampled_from(sorted(SOLVER_NETS)))]()
    switches = sorted(topology.switches)
    ports = sorted({(end.switch, end.port) for l in topology.links for end in l.endpoints})
    speed = st.sampled_from([1e8, 5e8, 1e9, 2.5e9, 1e10])
    net = FlowNet(
        topology,
        link_bps=draw(speed),
        host_bps=draw(speed),
        port_overrides={p: draw(speed) for p in draw(st.lists(st.sampled_from(ports), max_size=4))},
        switch_overrides={
            sw: draw(speed) for sw in draw(st.lists(st.sampled_from(switches), max_size=2))
        },
    )
    hosts = sorted(topology.hosts)
    rows = []
    for _ in range(draw(st.integers(0, 24))):
        src, dst = draw(st.permutations(hosts))[:2]
        found = net.candidates(src, dst, 4)
        path = list(found[draw(st.integers(0, len(found) - 1))][0])
        if len(path) > 1 and draw(st.integers(0, 4)) == 0:
            path[1:1] = [path[1], path[0]]  # out, back, out again: a hairpin
        rows.append(net.route_links(src, path, dst))
    routes = {}
    for fid, links in enumerate(draw(st.permutations(rows))):
        key = ("zoom", fid) if draw(st.integers(0, 4)) == 0 else fid
        routes[key] = links
    demands = {}
    for key, route in routes.items():
        kind = draw(st.sampled_from(["none", "none", "none", "zero", "tight", "free"]))
        if kind == "zero":
            demands[key] = 0.0
        elif kind == "tight":
            sharers = sum(1 for other in routes.values() if route[1] in other)
            demands[key] = net.capacities[route[1]] / sharers
        elif kind == "free":
            demands[key] = draw(st.floats(0.0, 2e9, allow_nan=False))
    return routes, net.capacities, demands


@settings(max_examples=400, deadline=None)
@given(st.one_of(solver_inputs(), flownet_solver_inputs()))
def test_solver_equals_the_seed_solver_float_for_float(inputs):
    routes, capacities, demands = inputs
    want = ref.max_min_rates(routes, capacities, demands)
    got = max_min_rates(routes, capacities, demands)
    # ``==`` on the item lists: same keys in the same order, and floats
    # compared bit for bit (no tolerance, no NaN in either).
    assert list(got.items()) == list(want.items())
    assert all(type(rate) is float for rate in got.values())


@settings(max_examples=100, deadline=None)
@given(solver_inputs(), st.sampled_from(["unknown-link", "bad-capacity", "bad-demand"]))
def test_solver_refuses_what_the_seed_solver_refused(inputs, defect):
    routes, capacities, demands = inputs
    if defect == "unknown-link":
        routes["stray"] = [("tx", "nowhere", 0)]
    elif defect == "bad-capacity":
        capacities[("tx", "idle", 99)] = -1.0  # a link no route crosses
    else:
        routes["greedy"] = []
        demands["greedy"] = -1.0
    for solver in (ref.max_min_rates, max_min_rates):
        with pytest.raises(FairnessError):
            solver(routes, capacities, demands)


# ---------------------------------------------------------------------------
# rebalancers and the caches behind them

TOPOLOGIES = {
    "leaf_spine": lambda: leaf_spine(3, 4, 3, num_ports=16),
    "fat_tree": lambda: fat_tree(4),
    # Two cables per leaf-spine pair: walks take the first of a bundle.
    "leaf_spine_bundled": lambda: leaf_spine(2, 3, 2, num_ports=16, uplinks_per_pair=2),
    # Irregular: equal-cost ties the tree walk must break like Dijkstra.
    "jellyfish": lambda: jellyfish(10, 3, hosts_per_switch=1, seed=3),
}
POLICIES = {
    "flowlet": (RebalancingKPathPolicy, ref.RebalancingKPathPolicy, "_load"),
    "ecn": (EcnAwareKPathPolicy, ref.EcnAwareKPathPolicy, "_util"),
}

steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["arrive", "arrive", "arrive", "rebalance", "rebalance", "finish", "fail", "restore"]
        ),
        st.integers(0, 10_000),
    ),
    min_size=4,
    max_size=24,
)


class Side:
    """One engine under test: its own net, policy and flow objects."""

    def __init__(self, topology, policy_cls, k):
        self.net = FlowNet(topology, link_bps=1e9, host_bps=1e9)
        self.policy = policy_cls(k=k)
        self.flows = []
        self.down = set()  # cables currently failed

    def revalidate(self):
        """What ``FluidSimulator._recompute`` does before rebalancing."""
        for flow in self.flows:
            if flow.done:
                continue
            if flow.switch_path is not None and not self.net.path_is_alive(
                flow.src, flow.switch_path, flow.dst
            ):
                flow.switch_path = None
            if flow.switch_path is None:
                flow.switch_path = self.policy.choose(self.net, flow)

    def mutate(self, op, pick, hosts, cables):
        """The event itself; routes it killed are still on their flows."""
        rng = random.Random(pick)
        if op == "arrive":
            src, dst = rng.sample(hosts, 2)
            flow = Flow(len(self.flows) + 1, src, dst, size_bits=1e6, start_s=0.0)
            flow.pinned = rng.random() < 0.25
            self.flows.append(flow)
        elif op == "finish" and self.flows:
            rng.choice(self.flows).finished_at = 1.0
        elif op == "fail":
            cable = rng.choice(cables)
            self.down.add(cable)
            self.net.fail_link(*cable)
        elif op == "restore" and self.down:
            cable = rng.choice(sorted(self.down))
            self.down.remove(cable)
            self.net.restore_link(*cable)

    def settle(self, op, pick):
        """The recompute that follows: re-choose dead routes, rebalance."""
        self.revalidate()
        if op != "rebalance":
            return None
        rng = random.Random(pick)
        for flow in self.flows:  # standing rates the ECN policy reads
            flow.rate_bps = rng.choice([0.0, 1e8, 5e8, 9.6e8, 1e9])
        return self.policy.rebalance(self.net, self.flows)


def assert_caches_match_a_fresh_net(side, topology, k):
    """Nothing memoised may differ from a net that never saw the history."""
    fresh = FlowNet(topology, link_bps=1e9, host_bps=1e9)
    for cable in sorted(side.down):
        fresh.fail_link(*cable)
    for flow in side.flows:
        if flow.switch_path is None:
            assert side.net.flow_links(flow) is None
        else:
            want = fresh.route_links(flow.src, flow.switch_path, flow.dst)
            assert side.net.flow_links(flow) == want
            assert side.net.flow_links(flow) == want  # and again, now cached
    pairs = {(flow.src, flow.dst) for flow in side.flows}
    for src, dst in sorted(pairs):
        for width in (1, k):
            got = side.net.k_paths(src, dst, width)
            assert got == fresh.k_paths(src, dst, width)
            # The seed formula: 2k enumerated, dead ones dropped, k kept.
            src_sw = topology.host_port(src).switch
            dst_sw = topology.host_port(dst).switch
            enumerated = topology.k_shortest_switch_paths(src_sw, dst_sw, 2 * width)
            assert got == [p for p in enumerated if fresh.path_is_alive(src, p, dst)][:width]
            for path, links in side.net.candidates(src, dst, width):
                assert links == fresh.route_links(src, path, dst)


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    st.sampled_from(sorted(TOPOLOGIES)),
    st.sampled_from(sorted(POLICIES)),
    st.integers(1, 4),
    steps,
)
def test_rebalancers_and_route_caches_equal_the_seed_under_failures(kind, te, k, ops):
    topology = TOPOLOGIES[kind]()
    hosts = sorted(topology.hosts)
    cables = sorted((l.a.switch, l.a.port, l.b.switch, l.b.port) for l in topology.links)
    engine_cls, seed_cls, level = POLICIES[te]
    engine = Side(topology, engine_cls, k)
    seed = Side(topology, seed_cls, k)
    for op, pick in ops:
        engine.mutate(op, pick, hosts, cables)
        seed.mutate(op, pick, hosts, cables)
        # Before anything re-chooses: a flow whose cable just went down
        # must already resolve to None, not to the links it cached.
        assert_caches_match_a_fresh_net(engine, topology, k)
        assert engine.settle(op, pick) == seed.settle(op, pick)
        assert [f.switch_path for f in engine.flows] == [f.switch_path for f in seed.flows]
        assert engine.policy.reroutes == seed.policy.reroutes
        assert getattr(engine.policy, level) == getattr(seed.policy, level)
        assert_caches_match_a_fresh_net(engine, topology, k)
    assert not any(math.isnan(v) for v in getattr(engine.policy, level).values())
