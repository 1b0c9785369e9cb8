"""Controller path-service benchmarks: cold vs warm serving, failure
storms, gossip-overlay rebuilds.

Standalone (not a pytest bench -- CI runs it directly):

    PYTHONPATH=src python benchmarks/bench_controller_paths.py [--smoke]

PR 2 made the emulator fast enough that the control plane became the
hot path: every PathRequest used to run ``build_path_graph`` from
scratch.  This bench measures what the PathService buys, per topology:

* **cold** -- first-touch queries through the service (one shared SSSP
  tree per source, then the path-graph build),
* **warm** -- the same queries again (pure LRU cache hits),
* **uncached** -- the pre-PathService serving path, re-measured live
  (fresh ``build_path_graph`` per query, no shared trees),
* **failure storm** -- link-down invalidations, asserting each one
  evicts exactly the cached entries whose edges contain the failed
  cable, and timing the re-serve of just the evicted keys,
* **overlay** -- ``compute_gossip_overlay`` cold vs warm (the rebuild
  reuses the service's SSSP trees).

Every cached answer is asserted byte-identical to a fresh
``build_path_graph`` run with the same deterministic tie-breaker rng.
Results land in ``BENCH_controller.json`` at the repo root alongside
the pre-optimization baseline so the speedup column is self-contained.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.core.controller import Controller
from repro.core.pathgraph import build_path_graph
from repro.netsim.events import EventLoop
from repro.topology import cube
from repro.topology.fattree import fat_tree

from _util import REPO_ROOT, publish_json

#: Pre-optimization numbers, measured at the parent commit of this
#: branch on the same machine/interpreter CI uses: microseconds per
#: PathRequest served the old way (a fresh ``build_path_graph`` per
#: query, seeded rng, same query mix as below).
BASELINE = {
    "commit": "dd1ebf2",
    "cold_us_per_query": {"fat_tree_8": 1474.0, "cube_10x10x10": 33760.0},
    "overlay_rebuild_s": {"fat_tree_8": 0.095},
}

SEED = 7
WARM_ROUNDS = 5

S_PARAM = 2
EPSILON = 1


def make_controller(topo) -> Controller:
    """A bootstrapped-view controller with no live fabric behind it --
    the bench drives the serving layer directly."""
    ctl = Controller(
        sorted(topo.hosts)[0], EventLoop(), rng=random.Random(SEED)
    )
    ctl.adopt_view(topo.copy())
    return ctl


def sample_pairs(view, n_pairs: int, rng: random.Random):
    """Distinct ordered switch pairs, the bench's query mix."""
    switches = sorted(view.switches)
    pairs = []
    seen = set()
    while len(pairs) < n_pairs:
        src, dst = rng.sample(switches, 2)
        if (src, dst) not in seen:
            seen.add((src, dst))
            pairs.append((src, dst))
    return pairs


def bench_topology(name: str, topo, n_pairs: int) -> dict:
    ctl = make_controller(topo)
    service = ctl.path_service
    view = ctl.view
    pairs = sample_pairs(view, n_pairs, random.Random(SEED))

    # Uncached reference: the pre-PathService serving path, re-measured
    # live.  Same deterministic rng per key, so its answers double as
    # the byte-identity oracle for the cached ones below.
    t0 = time.perf_counter()
    reference = [
        build_path_graph(
            view, src, dst, s=S_PARAM, epsilon=EPSILON,
            rng=service.rng_for(src, dst, S_PARAM, EPSILON),
        )
        for src, dst in pairs
    ]
    uncached_wall = time.perf_counter() - t0

    # Cold: first touch through the service (shared trees amortize the
    # per-source Dijkstra across queries and detour windows).
    t0 = time.perf_counter()
    cold = [
        service.path_graph(view, src, dst, S_PARAM, EPSILON)
        for src, dst in pairs
    ]
    cold_wall = time.perf_counter() - t0
    assert service.stats.misses == len(pairs)

    # Byte-identity: the cached answer IS the uncached answer.
    for got, want in zip(cold, reference):
        assert got == want, "cached path graph diverged from fresh build"

    # Warm: the same query mix again, several rounds.
    t0 = time.perf_counter()
    for _ in range(WARM_ROUNDS):
        for src, dst in pairs:
            service.path_graph(view, src, dst, S_PARAM, EPSILON)
    warm_wall = time.perf_counter() - t0
    assert service.stats.hits >= WARM_ROUNDS * len(pairs)

    uncached_us = uncached_wall / len(pairs) * 1e6
    cold_us = cold_wall / len(pairs) * 1e6
    warm_us = warm_wall / (WARM_ROUNDS * len(pairs)) * 1e6
    baseline_us = BASELINE["cold_us_per_query"].get(name)
    result = {
        "topology": name,
        "switches": len(view.switches),
        "queries": len(pairs),
        "uncached_us_per_query": round(uncached_us, 1),
        "cold_us_per_query": round(cold_us, 1),
        "warm_us_per_query": round(warm_us, 2),
        "cold_speedup_vs_uncached": round(uncached_us / cold_us, 2),
        "warm_speedup_vs_uncached": round(uncached_us / warm_us, 1),
        "baseline_cold_us_per_query": baseline_us,
        "warm_speedup_vs_baseline": (
            round(baseline_us / warm_us, 1) if baseline_us else None
        ),
        "stats": service.stats.as_dict(),
    }
    result["failure_storm"] = bench_failure_storm(ctl, pairs)
    return result


def bench_failure_storm(ctl: Controller, pairs) -> dict:
    """Fail switch-to-switch cables one by one, checking that each
    invalidation evicts exactly the entries whose edges contain the
    cable, then time re-serving just the evicted keys."""
    service = ctl.path_service
    view = ctl.view
    rng = random.Random(SEED + 1)
    links = sorted(
        (l.a.switch, l.a.port, l.b.switch, l.b.port) for l in view.links
    )
    storm = rng.sample(links, min(16, len(links)))

    evicted_total = 0
    invalidate_wall = 0.0
    for sw_a, port_a, sw_b, port_b in storm:
        # A graph names each cable once, in either orientation.
        orientations = {(sw_a, port_a, sw_b, port_b), (sw_b, port_b, sw_a, port_a)}
        affected = set()
        for key in service.cached_keys():
            graph = service.path_graph(view, *key)  # a hit
            if graph is not None and orientations & set(graph.edges):
                affected.add(key)
        survivors = set(service.cached_keys()) - affected
        view.remove_link(sw_a, port_a, sw_b, port_b)
        t0 = time.perf_counter()
        evicted = service.invalidate_link(view, sw_a, port_a, sw_b, port_b)
        invalidate_wall += time.perf_counter() - t0
        assert evicted == len(affected), (
            f"link ({sw_a},{port_a})-({sw_b},{port_b}) evicted {evicted} "
            f"entries, expected exactly the {len(affected)} whose edges "
            "contain it"
        )
        assert survivors == set(service.cached_keys()), (
            "unaffected cache entries did not survive the invalidation"
        )
        evicted_total += evicted

    # Re-serve the whole mix on the degraded view: survivors hit, the
    # evicted keys rebuild, and every answer must match a fresh build.
    hits_before = service.stats.hits
    t0 = time.perf_counter()
    reserved = [
        service.path_graph(view, src, dst, S_PARAM, EPSILON)
        for src, dst in pairs
    ]
    reserve_wall = time.perf_counter() - t0
    sample = random.Random(SEED + 2).sample(range(len(pairs)), min(10, len(pairs)))
    for i in sample:
        src, dst = pairs[i]
        assert reserved[i] == build_path_graph(
            view, src, dst, s=S_PARAM, epsilon=EPSILON,
            rng=service.rng_for(src, dst, S_PARAM, EPSILON),
        ), "post-storm cached answer diverged from fresh build"

    return {
        "links_failed": len(storm),
        "entries_evicted": evicted_total,
        "cache_hits_on_reserve": service.stats.hits - hits_before,
        "invalidate_us_per_link": round(invalidate_wall / len(storm) * 1e6, 1),
        "reserve_us_per_query": round(reserve_wall / len(pairs) * 1e6, 1),
    }


def bench_overlay(name: str, topo) -> dict:
    """Gossip-overlay rebuild: cold (trees built on demand) vs warm
    (every per-pair Dijkstra replaced by a memoized tree walk)."""
    ctl = make_controller(topo)
    t0 = time.perf_counter()
    ctl.compute_gossip_overlay()
    cold_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    ctl.compute_gossip_overlay()
    warm_wall = time.perf_counter() - t0
    baseline_s = BASELINE["overlay_rebuild_s"].get(name)
    return {
        "topology": name,
        "hosts": len(ctl.view.hosts),
        "cold_s": round(cold_wall, 4),
        "warm_s": round(warm_wall, 4),
        "baseline_s": baseline_s,
        "warm_speedup_vs_baseline": (
            round(baseline_s / warm_wall, 1) if baseline_s else None
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: fat-tree(4) and a 5x5x5 cube instead of the "
             "paper-scale topologies",
    )
    opts = parser.parse_args(argv)

    if opts.smoke:
        topologies = [
            ("fat_tree_4", fat_tree(4), 60),
            ("cube_5x5x5", cube([5, 5, 5], hosts_per_switch=1, num_ports=8), 40),
        ]
        overlay_topo = ("fat_tree_4", fat_tree(4))
    else:
        topologies = [
            ("fat_tree_8", fat_tree(8), 200),
            ("cube_10x10x10", cube([10, 10, 10], hosts_per_switch=1, num_ports=8), 60),
        ]
        overlay_topo = ("fat_tree_8", fat_tree(8))

    payload = {
        "schema": "bench-controller/1",
        "mode": "smoke" if opts.smoke else "full",
        "baseline": BASELINE,
        "topologies": [],
    }
    for name, topo, n_pairs in topologies:
        point = bench_topology(name, topo, n_pairs)
        print(f"[{name}] {point}")
        payload["topologies"].append(point)
    payload["overlay"] = bench_overlay(*overlay_topo)
    print(f"[overlay] {payload['overlay']}")

    publish_json(
        "bench_controller", payload,
        path=os.path.join(REPO_ROOT, "BENCH_controller.json"),
    )

    failed = False
    for point in payload["topologies"]:
        # The acceptance floor: warm serving at least 5x faster than
        # cold, against the embedded baseline when this topology has
        # one and the live uncached measurement either way.
        if point["warm_speedup_vs_uncached"] < 5.0:
            print(f"FAIL: {point['topology']} warm path only "
                  f"{point['warm_speedup_vs_uncached']}x over live uncached")
            failed = True
        vs_baseline = point["warm_speedup_vs_baseline"]
        if vs_baseline is not None and vs_baseline < 5.0:
            print(f"FAIL: {point['topology']} warm path only "
                  f"{vs_baseline}x over the recorded cold baseline")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
