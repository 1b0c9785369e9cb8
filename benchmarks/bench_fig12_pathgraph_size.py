"""Figure 12: path-graph size vs epsilon, 10x10x10 cube, s=2.

Paper: "we emulate a path graph with a 10x10x10 cube topology.  We fix
the parameter s at 2... randomly pick primary paths of different
length... for longer paths, a larger epsilon results in lots of extra
caching...  For shorter paths, even with a large epsilon, the cache
size is still reasonable."  Series: path lengths {2, 5, 10, 15} over
epsilon choices (the paper's x-axis runs 0..4-ish, y up to ~150
switches).
"""

import random

import pytest

from repro.analysis import render_table
from repro.core.pathgraph import build_path_graph
from repro.topology import cube

from _util import publish

S_PARAM = 2
EPSILONS = (0, 1, 2, 3, 4)
PATH_LENGTHS = (2, 5, 10, 15)
SAMPLES_PER_LENGTH = 3


def pick_pair_at_distance(topo, rng, hops, dist_cache=None):
    """A random switch pair exactly ``hops`` apart.

    ``dist_cache`` memoizes the per-source distance map: the grid
    resamples sources across lengths, and one BFS over a 1000-switch
    cube per retry dominated the whole benchmark's setup time.
    """
    switches = topo.switches
    for _ in range(500):
        src = rng.choice(switches)
        if dist_cache is None:
            dist = topo.switch_distances(src)
        else:
            dist = dist_cache.get(src)
            if dist is None:
                dist = dist_cache[src] = topo.switch_distances(src)
        candidates = [sw for sw, d in dist.items() if d == hops]
        if candidates:
            return src, rng.choice(candidates)
    raise RuntimeError(f"no pair at distance {hops}")


def run_grid():
    topo = cube([10, 10, 10], hosts_per_switch=1, num_ports=8)
    rng = random.Random(2024)
    dist_cache = {}
    grid = {}
    for length in PATH_LENGTHS:
        pairs = [
            pick_pair_at_distance(topo, rng, length, dist_cache)
            for _ in range(SAMPLES_PER_LENGTH)
        ]
        for eps in EPSILONS:
            sizes = []
            for src, dst in pairs:
                graph = build_path_graph(topo, src, dst, s=S_PARAM, epsilon=eps, rng=rng)
                sizes.append(graph.size)
            grid[(length, eps)] = sum(sizes) / len(sizes)
    return grid


def render(grid):
    """The committed ``fig12_pathgraph_size.txt`` table for ``grid``."""
    rows = []
    for length in PATH_LENGTHS:
        rows.append(
            (f"len={length}",)
            + tuple(f"{grid[(length, eps)]:.0f}" for eps in EPSILONS)
        )
    return render_table(
        ["Primary path"] + [f"eps={e}" for e in EPSILONS],
        rows,
        title=(
            "Figure 12: mean path-graph size (switches cached) on a "
            "10x10x10 cube, s=2.\n"
            "Paper: size grows with epsilon, steeply for long paths, "
            "modestly for short ones."
        ),
    )


def test_fig12_pathgraph_size(benchmark):
    grid = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    publish("fig12_pathgraph_size", render(grid))

    # Monotone in epsilon for every length.
    for length in PATH_LENGTHS:
        series = [grid[(length, eps)] for eps in EPSILONS]
        assert all(a <= b + 1e-9 for a, b in zip(series, series[1:]))
    # Longer primaries cache more, at every epsilon.
    for eps in EPSILONS:
        assert grid[(2, eps)] < grid[(15, eps)]
    # Short paths stay cheap even at the largest epsilon (paper's
    # "still reasonable"): far below the 1000-switch topology.
    assert grid[(2, EPSILONS[-1])] < 60
    # Long paths at a large epsilon blow up into serious caching.
    assert grid[(15, EPSILONS[-1])] > 2 * grid[(15, 0)]
