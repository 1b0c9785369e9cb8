"""Table 2: latency of the kernel-module functions.

Paper setup: "a fat-tree topology with 5,120 switches and 131,072
links.  To measure PathTable lookup time, we inserted 10K random
entries into the Table.  The path length we verify is 16...  We run
each test 1,000 times and take the average."

Paper numbers: PathTable lookup 0.37 us, Path verify 7.17 us,
Find path 1.50 us (C++ on a 2.1 GHz Xeon).  Python is slower in
absolute terms; the reproduced claims are the *relationships*: all
three operations are microsecond-scale (far below a packet time
budget), lookup is the cheapest, and verify costs linearly in path
length, making it the most expensive of the three.
"""

import random

import pytest

from repro.analysis import render_table
from repro.core.pathcache import CachedPath, PathTable
from repro.core.verifier import PathVerifier
from repro.topology import fat_tree

from _util import publish

RESULTS = {}


@pytest.fixture(scope="module")
def setup():
    """The paper's measurement rig: k=64 fat-tree = 5,120 switches and
    131,072 links, 10K random PathTable entries, a 16-hop verify path."""
    topo = fat_tree(64, hosts_per_edge=1)
    assert len(topo.switches) == 5120
    assert len(topo.links) == 131072

    rng = random.Random(42)
    table = PathTable(rng=rng)
    hosts = topo.hosts
    # 10K random entries.  Fat-tree shortest paths have the fixed shape
    # edge-agg-core-agg-edge, so entries are built structurally (one
    # Dijkstra each at this scale would dominate setup for no benefit:
    # lookup cost depends only on table occupancy).
    switch_names = topo.switches
    for i in range(10_000):
        path = rng.sample(switch_names, 5)
        tags = tuple(rng.randrange(1, 65) for _ in range(5))
        table.install(f"dst{i}", [CachedPath.from_encoding(path, tags)])

    # A 16-hop path for verification ("longer than most DCN paths"):
    # walk valid hops in the real topology.
    src_host = hosts[0]
    switches = [topo.host_port(src_host).switch]
    rng16 = random.Random(7)
    while len(switches) < 16:
        nxt = [
            n for n in topo.neighbors(switches[-1])
            if len(switches) < 2 or n != switches[-2]
        ]
        switches.append(rng16.choice(nxt))
    # End the path at a host on the final switch; fat_tree hosts sit on
    # edge switches only, so walk until we can close on one.
    while not topo.hosts_on(switches[-1]):
        switches.append(rng16.choice(topo.neighbors(switches[-1])))
    dst_host = topo.hosts_on(switches[-1])[0]
    tags = topo.encode_path(src_host, switches, dst_host)
    verify_path = CachedPath.from_encoding(switches, tags)
    verifier = PathVerifier(topo)
    assert verifier.verify(src_host, dst_host, verify_path)

    yield topo, table, verifier, (src_host, dst_host, verify_path)

    # Teardown: render the paper table from whatever benchmarks ran.
    if len(RESULTS) == 3:
        paper = {
            "PathTable lookup": 0.37e-6,
            "Path verify (16 hops)": 7.17e-6,
            "Find path": 1.50e-6,
        }
        rows = [
            (name, f"{paper[name] * 1e6:.2f}", f"{RESULTS[name] * 1e6:.2f}")
            for name in paper
        ]
        text = render_table(
            ["Function", "Paper (us, C++)", "Measured (us, Python)"],
            rows,
            title="Table 2: kernel-module function latency "
            "(fat-tree: 5,120 switches / 131,072 links; 10K PathTable entries)",
        )
        publish("table2_kernel_functions", text)
        # The relationships the module docstring claims.
        assert min(RESULTS, key=RESULTS.get) == "PathTable lookup"
        assert max(RESULTS, key=RESULTS.get) == "Path verify (16 hops)"


def test_pathtable_lookup(benchmark, setup):
    _topo, table, _verifier, _vp = setup
    rng = random.Random(3)
    keys = [f"dst{rng.randrange(10_000)}" for _ in range(64)]

    def lookup_batch():
        for key in keys:
            table.lookup(key, flow_key="flow")

    benchmark(lookup_batch)
    per_op = benchmark.stats.stats.mean / len(keys)
    RESULTS["PathTable lookup"] = per_op


def test_path_verify_16_hops(benchmark, setup):
    _topo, _table, verifier, (src, dst, path) = setup
    assert len(path.switches) >= 16

    def verify():
        assert verifier.verify(src, dst, path)

    benchmark(verify)
    RESULTS["Path verify (16 hops)"] = benchmark.stats.stats.mean


def test_find_path(benchmark, setup):
    """"Find path": choose among the k cached candidates for a flow --
    the hot-path routing decision the agent makes per new flowlet.
    Every round starts with the flows unbound, so each lookup makes
    that choice instead of reading a binding an earlier round made."""
    _topo, table, _verifier, _vp = setup
    rng = random.Random(5)
    keys = [f"dst{rng.randrange(10_000)}" for _ in range(64)]

    def forget_flows():
        for key in keys:
            table.entry(key).flow_bindings.clear()

    def find_batch():
        for i, key in enumerate(keys):
            table.lookup(key, flow_key=("new-flow", i))

    benchmark.pedantic(find_batch, setup=forget_flows, rounds=2000)
    RESULTS["Find path"] = benchmark.stats.stats.mean / len(keys)


