"""The seed bootstrap BFS, kept as an oracle.

The body ``repro.core.discovery.discover`` had before bootstrap became
the frontier engine: one round per dequeued switch (a host probe and
``P`` bounces per open port), then one verification probe per round
until a candidate confirms.  Only its controller-host bookkeeping is
gone.  It shares the transport types and the retrying round, not the
engine.  Nothing under ``src/`` may import this module.
"""

from typing import Dict, List, Optional, Tuple

from repro.core.discovery import (
    DiscoveryError,
    DiscoveryResult,
    DiscoveryStats,
    ProbeOutcome,
    ProbeSpec,
    _retrying_round,
)
from repro.core.packet import ID_QUERY
from repro.topology.graph import Topology


def discover(transport, origin, probe_retries=0):
    """Map the network reachable from ``origin`` by BFS probing."""
    stats = DiscoveryStats()
    max_ports = transport.max_ports

    def run_round(specs: List[ProbeSpec]) -> List[Optional[ProbeOutcome]]:
        return _retrying_round(transport, stats, specs, probe_retries)

    # Phase 0: find our own port and the root switch ID by sending
    # 0-1-ø, 0-2-ø, ... and seeing which ID reply bounces back.
    own_port = None
    root = None
    specs = [ProbeSpec(tags=(ID_QUERY, p)) for p in range(1, max_ports + 1)]
    for p, outcome in zip(range(1, max_ports + 1), run_round(specs)):
        if outcome is not None and outcome.kind == "id":
            own_port, root = p, outcome.switch_id
            break
    if own_port is None or root is None:
        raise DiscoveryError(f"host {origin!r} could not reach its switch")

    view = Topology()
    view.add_switch(root, max_ports)
    view.add_host(origin, root, own_port)

    tags_to: Dict[str, Tuple[int, ...]] = {root: ()}
    tags_from: Dict[str, Tuple[int, ...]] = {root: (own_port,)}
    queue: List[str] = [root]

    while queue:
        switch = queue.pop(0)
        to_here = tags_to[switch]
        from_here = tags_from[switch]
        open_ports = [
            q for q in range(1, max_ports + 1) if view.peer(switch, q) is None
        ]
        if not open_ports:
            continue

        # One combined round: a host probe and P switch probes per port.
        specs = []
        index: List[Tuple[str, int, int]] = []  # (kind, q, r)
        for q in open_ports:
            specs.append(ProbeSpec(tags=to_here + (q,), reply_tags=from_here))
            index.append(("host", q, 0))
            for r in range(1, max_ports + 1):
                specs.append(
                    ProbeSpec(tags=to_here + (q, ID_QUERY, r) + from_here)
                )
                index.append(("switch", q, r))
        outcomes = run_round(specs)

        hosts_at: Dict[int, ProbeOutcome] = {}
        bounces_at: Dict[int, List[Tuple[int, str]]] = {}
        for (kind, q, r), outcome in zip(index, outcomes):
            if outcome is None:
                continue
            if kind == "host" and outcome.kind == "host":
                hosts_at[q] = outcome
            elif kind == "switch" and outcome.kind == "id":
                bounces_at.setdefault(q, []).append((r, outcome.switch_id))

        for q, outcome in hosts_at.items():
            assert outcome.host is not None
            if not view.has_host(outcome.host):
                view.add_host(outcome.host, switch, q)

        # Resolve each port's bounce candidates with verification
        # probes: does the return hop really transit this switch?
        for q, candidates in bounces_at.items():
            if q in hosts_at or view.peer(switch, q) is not None:
                continue
            if len(candidates) > 1:
                stats.ambiguities_resolved += 1
            confirmed: Optional[Tuple[int, str]] = None
            for r, neighbor_id in candidates:
                if view.has_switch(neighbor_id) and view.peer(neighbor_id, r) is not None:
                    continue  # that port of the neighbor is already taken
                verify = ProbeSpec(tags=to_here + (q, r, ID_QUERY) + from_here)
                stats.verifications += 1
                result = run_round([verify])[0]
                if result is not None and result.kind == "id" and result.switch_id == switch:
                    confirmed = (r, neighbor_id)
                    break
            if confirmed is None:
                continue
            r, neighbor_id = confirmed
            if not view.has_switch(neighbor_id):
                view.add_switch(neighbor_id, max_ports)
                tags_to[neighbor_id] = to_here + (q,)
                tags_from[neighbor_id] = (r,) + from_here
                queue.append(neighbor_id)
            view.add_link(switch, q, neighbor_id, r)

    stats.probes_sent = transport.probes_sent
    stats.replies_received = transport.replies_received
    stats.elapsed_s = transport.elapsed()
    return DiscoveryResult(
        view=view,
        origin=origin,
        origin_attachment=(root, own_port),
        stats=stats,
    )
