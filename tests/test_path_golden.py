"""Golden digests for the path layer.

The path kernel (``topology/graph.py``), the path-graph builder and the
fluid candidate-path cache are allowed to get faster, never to answer
differently.  The end-to-end benchmark pins that with ``sim.digest``;
these two cells pin it for ``pytest`` alone.  The constants were computed
at the commit *before* the kernel rewrite (b8eb70d) and must never be
re-pinned by a change that claims only host time.
"""

import hashlib
import random
import subprocess
import sys
from pathlib import Path

from repro.core.pathshard import ShardedPathService
from repro.topology import fat_tree
from repro.workloads import Scenario, TraceReplay, path_query_storm, run_scenario

STORM_EVENTS = 1500
FLAP_EVERY = 400

SERVED_EDGES_DIGEST = "db131d4065fca03587ed43e6388648d4"
SERVED_QUERIES = 1480
KPATHS_DIGEST = "0f2da4d8498ffee6b0a3f68bf807b647"
FINISH_TIMES_DIGEST = "6f69c00b29802da5a322617c40f1c6f2"


def _blake2(value) -> str:
    return hashlib.blake2b(repr(value).encode(), digest_size=16).hexdigest()


def _flapping_storm(view, service):
    """A small ``control_storm``: seeded queries and host joins with one
    cable going down every ``FLAP_EVERY`` events and back up half a
    period later."""
    storm = path_query_storm(
        view,
        service.pod_map.pod_of,
        duration_s=0.2,
        query_rate_per_s=14000.0,
        join_rate_per_s=200.0,
        locality=0.6,
        seed=20181,
    )[:STORM_EVENTS]
    assert len(storm) == STORM_EVENTS
    rng = random.Random(4242)
    cables = sorted(
        (l.a.switch, l.a.port, l.b.switch, l.b.port) for l in view.links
    )
    down = None
    for index, event in enumerate(storm):
        phase = index % FLAP_EVERY
        if phase == FLAP_EVERY // 2 and down is None:
            down = rng.choice(cables)
            yield "link-down", down
        elif phase == 0 and down is not None:
            yield "link-up", down
            down = None
        yield event.kind, event.args


def test_sharded_service_answers_under_a_flapping_storm_are_pinned():
    view = fat_tree(8, hosts_per_edge=2, num_ports=16)
    service = ShardedPathService(view, seed=11)
    served = []
    for kind, args in _flapping_storm(view, service):
        if kind == "query":
            graph = service.path_graph(args[0], args[1], 2, 1)
            assert graph is not None
            served.append(graph.edges)
        elif kind == "host-join":
            view.add_host(*args)
            service.note_topology_change("host-up", args)
        elif kind == "link-down":
            view.remove_link(*args)
            service.note_topology_change(kind, args)
        else:
            view.add_link(*args)
            service.note_topology_change(kind, args)
    assert len(served) == SERVED_QUERIES
    assert _blake2(served) == SERVED_EDGES_DIGEST


def test_fluid_websearch_cell_paths_and_finish_times_are_pinned():
    topology = fat_tree(8)
    outcome = run_scenario(
        Scenario(
            TraceReplay("websearch", load_bps=50e9, duration_s=0.0226),
            te="flowlet",
            engine="fluid",
            topology=topology,
            link_bps=2.5e9,
            seed=4,
        )
    )
    flows = outcome.result.flows
    assert len(flows) == 100
    net = outcome.sim.net
    k_paths = [(f.src, f.dst, net.k_paths(f.src, f.dst, 4)) for f in flows]
    assert _blake2(k_paths) == KPATHS_DIGEST
    finish = [(f.src, f.dst, f.size_bits, f.finished_at) for f in flows]
    assert _blake2(finish) == FINISH_TIMES_DIGEST


def test_goldens_hold_behind_a_thousand_unrelated_switch_bits():
    """In a fresh interpreter that first built a topology of 1 000
    unrelated switch names, every native and path golden still holds:
    no answer depends on what else the process built."""
    tests = Path(__file__).resolve().parent
    code = f"""
import sys
sys.path.insert(0, {str(tests.parent / "src")!r})
from repro.topology.graph import Topology
unrelated = Topology()
for i in range(1000):
    unrelated.add_switch(f"unrelated-{{i}}", 1)
import pytest
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", "-k", "not thousand",
                      {str(tests / "test_native_golden.py")!r}, {str(tests / "test_path_golden.py")!r}]))
"""
    subprocess.run([sys.executable, "-B", "-c", code], cwd=tests.parent, check=True)
