"""Flowlet-based traffic engineering (Section 6.2).

The default routing function binds a flow to one of the k cached paths
for its destination.  The flowlet extension instead derives a *flowlet
ID* from the flow key plus a timestamp epoch: whenever a flow pauses
for longer than the flowlet gap, its flowlet ID bumps and the next
burst may take a different path.  Idle gaps longer than the network's
reordering horizon make this safe -- packets of different flowlets
cannot overtake each other.

The paper's point is that this takes ~100 lines on DumbNet because the
host already tracks its own flows and already caches k paths; this
module is the demonstration.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .host_agent import HostAgent
from .pathcache import CachedPath

__all__ = ["FlowletRouter", "FlowletState", "install_flowlet_routing"]

#: Default flowlet gap: 500 microseconds, the classic flowlet timescale
#: (an RTT-scale pause in a 10 GE data center).
DEFAULT_GAP_S = 500e-6


@dataclass
class FlowletState:
    """Per-flow tracking: when it last sent, and its current flowlet."""

    last_seen_s: float
    flowlet_id: int
    path_index: int


class FlowletRouter:
    """A :data:`~repro.core.host_agent.RoutingFunction` implementation.

    Install on an agent with ``agent.routing_function = FlowletRouter(agent)``
    or via :func:`install_flowlet_routing`.
    """

    def __init__(self, agent: HostAgent, gap_s: float = DEFAULT_GAP_S) -> None:
        self.agent = agent
        self.gap_s = gap_s
        self.flows: Dict[object, FlowletState] = {}
        self.flowlets_started = 0
        self.path_switches = 0

    def __call__(
        self, agent: HostAgent, dst: str, flow_key: object
    ) -> Optional[CachedPath]:
        entry = agent.path_table.entry(dst)
        if entry is None or not entry.primaries:
            return None  # fall back to default behaviour (query, backup)
        now = agent.loop.now
        state = self.flows.get(flow_key)
        paths = entry.primaries
        if state is None:
            state = FlowletState(
                last_seen_s=now,
                flowlet_id=0,
                path_index=self._pick(dst, flow_key, 0, len(paths)),
            )
            self.flows[flow_key] = state
            self.flowlets_started += 1
        elif now - state.last_seen_s > self.gap_s:
            # The flow paused long enough: new flowlet, new path choice.
            state.flowlet_id += 1
            new_index = self._pick(dst, flow_key, state.flowlet_id, len(paths))
            if new_index != state.path_index:
                self.path_switches += 1
            state.path_index = new_index
            self.flowlets_started += 1
        state.last_seen_s = now
        if state.path_index >= len(paths):
            state.path_index %= len(paths)
        return paths[state.path_index]

    def _pick(self, dst: str, flow_key: object, flowlet_id: int, k: int) -> int:
        """Deterministic choice: same flowlet -> same path (Section 6.2:
        "deterministically choose one of the many k paths available...
        based on the flowlet ID").  A digest of the flowlet's ``repr``,
        not ``hash()``: string hashes are salted per process."""
        key = repr((dst, flow_key, flowlet_id)).encode()
        return int.from_bytes(hashlib.blake2s(key, digest_size=8).digest(), "big") % k


def install_flowlet_routing(agent: HostAgent, gap_s: float = DEFAULT_GAP_S) -> FlowletRouter:
    """Attach a flowlet router to an agent; returns it for inspection."""
    router = FlowletRouter(agent, gap_s=gap_s)
    agent.routing_function = router
    return router
