"""Ablation: what the path graph buys (Section 4.3 design choice).

The paper argues the path graph (k shortest paths + local detours + a
link-disjoint backup) is the right point between caching one path
(tiny, fragile) and caching the whole topology (robust, huge): "hosts
can use the local detours to quickly handle single link failures, and
the backup path is designed to provide an alternative when many links
on the primary path fail in a correlated way."

This ablation measures exactly that, on a sparse jellyfish fabric where
path diversity is scarce.  For each cached-route strategy we ask: after
a failure, can the host keep talking *from cache alone* (no controller
round trip)?

* single failures -- one link cut (every link in turn);
* correlated failures -- three simultaneous link cuts (sampled).

Strategies: ``single`` (one shortest path), ``k-paths`` (k=4, no
backup), ``pathgraph`` (k=4 + the disjoint backup).
"""

import random

import pytest

from repro.analysis import render_table
from repro.core.pathgraph import build_path_graph
from repro.topology import jellyfish

from _util import publish

K = 4
PAIRS = 10
CORRELATED_SCENARIOS = 300
CORRELATED_SIZE = 3


def run_ablation():
    topo = jellyfish(12, 3, seed=2)
    rng = random.Random(99)
    switches = topo.switches
    pairs = []
    while len(pairs) < PAIRS:
        a, b = rng.sample(switches, 2)
        if topo.switch_distances(a).get(b, 0) >= 3:
            pairs.append((a, b))

    def plinks(path):
        return frozenset(
            topo.links_between(x, y)[0].key() for x, y in zip(path, path[1:])
        )

    all_links = [link.key() for link in topo.links]
    frng = random.Random(5)
    single_scenarios = [frozenset((l,)) for l in all_links]
    correlated_scenarios = [
        frozenset(frng.sample(all_links, CORRELATED_SIZE))
        for _ in range(CORRELATED_SCENARIOS)
    ]

    names = ("single", "k-paths", "pathgraph")
    stats = {
        name: {"single": [0, 0], "correlated": [0, 0], "edges": 0}
        for name in names
    }
    for src, dst in pairs:
        k_paths = topo.k_shortest_switch_paths(src, dst, K)
        graph = build_path_graph(topo, src, dst, s=2, epsilon=1, rng=rng)
        cached = {
            "single": [plinks(k_paths[0])],
            "k-paths": [plinks(p) for p in k_paths],
            "pathgraph": [plinks(p) for p in k_paths]
            + ([plinks(list(graph.backup))] if graph.backup else []),
        }
        stats["single"]["edges"] += len(k_paths[0]) - 1
        stats["k-paths"]["edges"] += sum(len(p) - 1 for p in k_paths)
        stats["pathgraph"]["edges"] += graph.num_edges
        for kind, scenarios in (
            ("single", single_scenarios),
            ("correlated", correlated_scenarios),
        ):
            for dead in scenarios:
                for name in names:
                    stats[name][kind][1] += 1
                    if any(not (dead & links) for links in cached[name]):
                        stats[name][kind][0] += 1
    return stats


def render(stats):
    """The committed ``ablation_pathgraph.txt`` table for ``stats``."""
    rows = []
    for name in ("single", "k-paths", "pathgraph"):
        s = stats[name]
        rows.append(
            (
                name,
                f"{100 * s['single'][0] / s['single'][1]:.1f}%",
                f"{100 * s['correlated'][0] / s['correlated'][1]:.1f}%",
                s["edges"] * 8,
            )
        )
    return render_table(
        [
            "Cache strategy",
            "1-link failures survived",
            f"{CORRELATED_SIZE}-link failures survived",
            "Cached bytes",
        ],
        rows,
        title=(
            "Ablation (Section 4.3): cache-only survival on a sparse "
            "jellyfish fabric (12 switches, degree 3)."
        ),
    )


def test_ablation_pathgraph(benchmark):
    stats = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    publish("ablation_pathgraph", render(stats))

    def rate(name, kind):
        won, total = stats[name][kind]
        return won / total

    # Single failures: one cached path is fragile; k paths fix it.
    assert rate("single", "single") < rate("k-paths", "single")
    # Correlated failures: the disjoint backup strictly helps on top of
    # k shortest paths (which share links on sparse fabrics).
    assert rate("k-paths", "correlated") < rate("pathgraph", "correlated")
    assert rate("single", "correlated") < rate("k-paths", "correlated")
