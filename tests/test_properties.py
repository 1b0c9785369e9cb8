"""Property-based tests (hypothesis) on the core invariants.

These exercise the invariants DESIGN.md lists: tag forwarding
faithfulness, discovery completeness, path-graph connectivity, max-min
fairness, and wire-format round-trips, over randomized inputs.
"""

import math
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_graph as ref
from helpers import random_connected
from repro.analysis import percentile
from repro.core.discovery import OracleProbeTransport, discover
from repro.core.packet import MAX_PORT_TAG, PathTags, decode_tags, encode_tags
from repro.core.pathgraph import build_path_graph
from repro.flowsim import max_min_rates

# Shared strategy: a seed-driven random connected topology.
topo_params = st.tuples(
    st.integers(min_value=2, max_value=9),    # switches
    st.integers(min_value=0, max_value=8),    # extra links
    st.integers(min_value=0, max_value=10_000),  # seed
)


def build(params):
    n, extra, seed = params
    return random_connected(
        n, extra_links=extra, hosts_per_switch=1, num_ports=12, seed=seed
    )


class TestWireFormat:
    @given(st.lists(st.integers(min_value=0, max_value=MAX_PORT_TAG), max_size=40))
    def test_encode_decode_roundtrip(self, ports):
        assert decode_tags(encode_tags(ports)) == ports

    @given(st.lists(st.integers(min_value=0, max_value=MAX_PORT_TAG), max_size=20))
    def test_pathtags_consume_exactly_once(self, ports):
        tags = PathTags(ports)
        popped = []
        while not tags.at_end:
            popped.append(tags.pop())
        assert popped == ports
        assert tags.wire_bytes == 1  # just the terminator left


class TestTagForwarding:
    @settings(max_examples=40, deadline=None)
    @given(topo_params, st.randoms(use_true_random=False))
    def test_encode_decode_any_shortest_path(self, params, rnd):
        """Any controller-encoded shortest path, followed hop by hop
        with dataplane semantics, visits exactly the encoded switches
        and lands on the destination host."""
        topo = build(params)
        hosts = topo.hosts
        src, dst = rnd.choice(hosts), rnd.choice(hosts)
        src_sw = topo.host_port(src).switch
        dst_sw = topo.host_port(dst).switch
        path = topo.shortest_switch_path(src_sw, dst_sw)
        assert path is not None  # connected by construction
        tags = topo.encode_path(src, path, dst)
        assert ref.decode_tags(topo, src, tags) == path


class TestDiscoveryCompleteness:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(topo_params)
    def test_discovery_recovers_exact_wiring(self, params):
        topo = build(params)
        origin = topo.hosts[0]
        result = discover(OracleProbeTransport(topo, origin), origin)
        assert result.view.same_wiring(topo)

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(topo_params, st.randoms(use_true_random=False))
    def test_discovery_from_any_host_is_equivalent(self, params, rnd):
        topo = build(params)
        a = rnd.choice(topo.hosts)
        b = rnd.choice(topo.hosts)
        view_a = discover(OracleProbeTransport(topo, a), a).view
        view_b = discover(OracleProbeTransport(topo, b), b).view
        assert view_a.same_wiring(view_b)


class TestPathGraphProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        topo_params,
        st.integers(min_value=1, max_value=3),   # s
        st.integers(min_value=0, max_value=3),   # epsilon
        st.randoms(use_true_random=False),
    )
    def test_path_graph_connected_and_bounded(self, params, s, eps, rnd):
        topo = build(params)
        src, dst = rnd.choice(topo.switches), rnd.choice(topo.switches)
        graph = build_path_graph(topo, src, dst, s=s, epsilon=eps)
        assert graph is not None
        # Connectivity of the subgraph.
        adj = {}
        for a, _pa, b, _pb in graph.edges:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        seen = {src}
        stack = [src]
        while stack:
            node = stack.pop()
            for nbr in adj.get(node, ()):
                if nbr in seen:
                    continue
                seen.add(nbr)
                stack.append(nbr)
        assert graph.nodes <= seen or len(graph.nodes) == 1
        # Every detour vertex is within the detour budget of the
        # endpoints (loose global bound: d(src,x)+d(x,dst) <= len+s+eps).
        # Backup-path nodes are exempt: a backup is merely "relatively
        # short", it need not be epsilon-good.
        dist_src = topo.switch_distances(src)
        dist_dst = topo.switch_distances(dst)
        budget = (len(graph.primary) - 1) + s + eps
        backup_nodes = set(graph.backup or ())
        for node in graph.nodes - backup_nodes:
            assert dist_src[node] + dist_dst[node] <= budget


class TestMaxMinProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_feasibility_and_saturation(self, data):
        """Allocations never exceed capacity, and every flow is blocked
        by at least one saturated link (or its demand)."""
        num_links = data.draw(st.integers(min_value=1, max_value=6))
        links = [f"L{i}" for i in range(num_links)]
        caps = {
            link: data.draw(
                st.floats(min_value=0.5, max_value=100.0), label=f"cap-{link}"
            )
            for link in links
        }
        num_flows = data.draw(st.integers(min_value=1, max_value=8))
        routes = {}
        demands = {}
        for i in range(num_flows):
            route = data.draw(
                st.lists(st.sampled_from(links), min_size=1, max_size=4, unique=True),
                label=f"route-{i}",
            )
            routes[f"f{i}"] = route
            if data.draw(st.booleans(), label=f"capped-{i}"):
                demands[f"f{i}"] = data.draw(
                    st.floats(min_value=0.01, max_value=50.0), label=f"demand-{i}"
                )
        rates = max_min_rates(routes, caps, demands)
        eps = 1e-6
        for link, cap in caps.items():
            used = sum(rates[f] for f, r in routes.items() if link in r)
            assert used <= cap + eps
        for flow, route in routes.items():
            rate = rates[flow]
            assert rate >= -eps
            if flow in demands and abs(rate - demands[flow]) < eps:
                continue  # demand-limited
            saturated_fairly = False
            for link in route:
                used = sum(rates[f] for f, r in routes.items() if link in r)
                if used >= caps[link] - eps:
                    users = [f for f, r in routes.items() if link in r]
                    if all(rates[f] <= rate + eps or f in demands for f in users):
                        saturated_fairly = True
            assert saturated_fairly, f"{flow} has slack everywhere"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_capacity_respected_with_duplicate_links(self, data):
        """Allocations never exceed any link capacity even when routes
        cross the same link more than once (each crossing consumes the
        flow's rate again).  Regression: the pre-multiplicity code
        divided fair shares by distinct-flow count but subtracted per
        occurrence, overcommitting duplicated links."""
        num_links = data.draw(st.integers(min_value=1, max_value=5))
        links = [f"L{i}" for i in range(num_links)]
        caps = {
            link: data.draw(
                st.floats(min_value=0.5, max_value=100.0), label=f"cap-{link}"
            )
            for link in links
        }
        num_flows = data.draw(st.integers(min_value=1, max_value=8))
        routes = {}
        demands = {}
        for i in range(num_flows):
            # unique=False: duplicated links are the point.
            routes[f"f{i}"] = data.draw(
                st.lists(st.sampled_from(links), min_size=1, max_size=6),
                label=f"route-{i}",
            )
            if data.draw(st.booleans(), label=f"capped-{i}"):
                demands[f"f{i}"] = data.draw(
                    st.floats(min_value=0.0, max_value=50.0), label=f"demand-{i}"
                )
        rates = max_min_rates(routes, caps, demands)
        eps = 1e-6
        for link, cap in caps.items():
            used = sum(rates[f] * r.count(link) for f, r in routes.items())
            assert used <= cap + eps, f"{link} overcommitted: {used} > {cap}"
        for flow, rate in rates.items():
            assert rate >= 0.0
            if flow in demands:
                assert rate <= demands[flow] + eps

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=10), st.floats(min_value=1.0, max_value=50.0))
    def test_single_link_equal_split(self, n, cap):
        routes = {f"f{i}": ["L"] for i in range(n)}
        rates = max_min_rates(routes, {"L": cap})
        for rate in rates.values():
            assert math.isclose(rate, cap / n, rel_tol=1e-9)


class TestAnalysisProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    def test_percentile_bounds(self, values):
        assert min(values) <= percentile(values, 50) <= max(values)
        assert percentile(values, 0) == min(values)
        assert percentile(values, 100) == max(values)

    @given(
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=100),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
    )
    def test_percentile_monotone(self, values, p1, p2):
        lo, hi = sorted((p1, p2))
        assert percentile(values, lo) <= percentile(values, hi)
