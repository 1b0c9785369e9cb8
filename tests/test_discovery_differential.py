"""The frontier engine, from both of its seeds, against the truth.

Bootstrap: the engine-backed ``discover`` must map what the seed BFS in
``reference_discovery.py`` maps, and what is really cabled, on random
fat-trees, cubes, jellyfish and leaf-spines with parallel cables, from a
random origin, with ``probe_retries`` 0 on a clean fabric or 2 on one
that loses the first attempt of a fifth of all probes.  Probe counts
differ (the engine scans a window of ports at once and verifies every
surviving candidate in one round); the map may not.  Parallel cables go
on the highest free port at both ends, so each bundle pairs its ports in
the same order on both switches: a crossed bundle is unobservable to tag
probing (EXPERIMENTS.md, known deviation 5).

Dirty ports: cables of a blueprint are moved, the blueprint is verified
and repaired (the blocking drivers in ``helpers``), then each moved-to
port raises its link-up and is reprobed with whatever the repair could
not reach.  Flagged links can strand a switch, so this exercises the
parked-frontier retry bootstrap never needs.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_discovery as ref
from helpers import expand, repair
from repro.core.discovery import OracleProbeTransport, discover, verify_expected_topology
from repro.topology import cube, fat_tree, jellyfish, leaf_spine
from test_discovery import _DropFirstAttempt

SPARE = 4  # free ports per switch, for parallel and moved cables
EDITS = st.lists(st.integers(0, 10**6), min_size=1, max_size=SPARE - 1)
SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def fabrics(draw):
    kind = draw(st.sampled_from(["fat_tree", "cube", "jellyfish", "leaf_spine"]))
    a, b, seed = draw(st.integers(0, 50)), draw(st.integers(0, 50)), draw(st.integers(0, 99))
    if kind == "fat_tree":
        return fat_tree(4, hosts_per_edge=1 + a % 2, num_ports=4 + SPARE)
    if kind == "cube":
        return cube([2 + a % 3, 2 + b % 2], num_ports=5 + SPARE)
    if kind == "jellyfish":
        return jellyfish(6 + a % 7, 2 + b % 2, num_ports=3 + b % 2 + SPARE, seed=seed)
    spines, leaves, uplinks = 2 + a % 2, 2 + b % 3, 1 + seed % 2
    ports = max(spines * uplinks + 2, leaves * uplinks) + SPARE
    return leaf_spine(spines, leaves, 2, num_ports=ports, uplinks_per_pair=uplinks)


def highest_free_port(topo, switch):
    free = [p for p in range(1, topo.num_ports(switch) + 1) if topo.peer(switch, p) is None]
    return free[-1] if free else None


def add_parallel(topo, pick):
    sw_a, sw_b = sorted((l.a.switch, l.b.switch) for l in topo.links)[pick % len(topo.links)]
    port_a, port_b = highest_free_port(topo, sw_a), highest_free_port(topo, sw_b)
    if port_a and port_b:
        topo.add_link(sw_a, port_a, sw_b, port_b)


def move_cable(topo, pick):
    """Move the far end of a single-cable pair to that switch's highest
    free port (moving one cable of a bundle could cross it).  Returns
    the moved-to port, or None."""
    singles = sorted(
        (l.a.switch, l.a.port, l.b.switch, l.b.port)
        for l in topo.links
        if len(topo.links_between(l.a.switch, l.b.switch)) == 1
    )
    if not singles:
        return None
    sw_a, port_a, sw_b, port_b = singles[pick % len(singles)]
    new_port = highest_free_port(topo, sw_b)
    if new_port is None:
        return None
    topo.remove_link(sw_a, port_a, sw_b, port_b)
    topo.add_link(sw_a, port_a, sw_b, new_port)
    return sw_b, new_port


class _Fifth:
    """A fixed fifth of all specs (their hashes are over ints only)."""

    def __contains__(self, spec):
        return hash(spec) % 5 == 0


@SETTINGS
@given(truth=fabrics(), parallel=EDITS, pick=st.integers(0, 10**6), retries=st.sampled_from([0, 2]))
def test_engine_bootstrap_equals_seed_bfs_and_truth(truth, parallel, pick, retries):
    for x in parallel:
        add_parallel(truth, x)
    hosts = sorted(truth.hosts)
    origin = hosts[pick % len(hosts)]

    def transport():
        drop = _Fifth() if retries else ()
        return _DropFirstAttempt(OracleProbeTransport(truth, origin), drop)

    mine = discover(transport(), origin, retries)
    theirs = ref.discover(transport(), origin, retries)

    assert mine.view.same_wiring(theirs.view)
    assert mine.view.same_wiring(truth)
    attach = truth.host_port(origin)
    assert mine.origin_attachment == theirs.origin_attachment == (attach.switch, attach.port)
    assert all(mine.view.host_port(h) == truth.host_port(h) for h in hosts)
    assert (mine.stats.probes_retried > 0) == bool(retries)


@SETTINGS
@given(blueprint=fabrics(), moves=EDITS, pick=st.integers(0, 10**6))
def test_blueprint_repair_lands_on_the_moved_wiring(blueprint, moves, pick):
    truth = blueprint.copy()
    link_ups = [port for port in (move_cable(truth, x) for x in moves) if port]
    hosts = sorted(truth.hosts)
    origin = hosts[pick % len(hosts)]

    transport = OracleProbeTransport(truth, origin)
    report = verify_expected_topology(transport, origin, blueprint)
    repaired = repair(transport, origin, blueprint, report)
    frontiers = link_ups + repaired.unreachable_frontiers
    reprobed = expand(transport, origin, repaired.view, frontiers)

    assert reprobed.view.same_wiring(truth)
    assert reprobed.unreachable_frontiers == []
