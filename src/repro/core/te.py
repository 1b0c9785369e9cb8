"""Traffic engineering as a first-class knob.

The repo implements four TE mechanisms -- flowlet switching
(:mod:`repro.core.flowlet`), ECMP-style random hashing, pHost-style
packet spraying (:mod:`repro.core.phost`), and ECN-aware rerouting
(:mod:`repro.core.ecn`) -- but until now selecting one meant knowing
which module to import at which fidelity level.  This module names
them once and provides both halves:

* :func:`make_flow_policy` -- the fluid/hybrid dataplane's
  :class:`~repro.flowsim.simulator.PathPolicy` for a TE name;
* :func:`install_packet_te` -- the packet-level routing functions on a
  live :class:`~repro.core.fabric.DumbNetFabric`'s host agents.

``DumbNetFabric.from_topology(..., te="flowlet")`` and
``Scenario(te="flowlet")`` both resolve through here, so the two
fidelity levels can never drift apart on what a TE name means.

The names:

======== ============================== ===============================
name     packet level                   fluid level
======== ============================== ===============================
flowlet  :class:`FlowletRouter`         :class:`RebalancingKPathPolicy`
ecmp     default k-path flow hashing    :class:`HashedKPathPolicy`
spray    round-robin per packet         :class:`SprayKPathPolicy`
ecn      :class:`EcnRerouter`           :class:`EcnAwareKPathPolicy`
single   first primary, always          :class:`SingleShortestPolicy`
======== ============================== ===============================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from ..flowsim.policies import EcnAwareKPathPolicy, SprayKPathPolicy
from ..flowsim.simulator import (
    HashedKPathPolicy,
    PathPolicy,
    RebalancingKPathPolicy,
    SingleShortestPolicy,
)

if TYPE_CHECKING:  # the packet half's types; importing them loads the emulator
    from .host_agent import HostAgent
    from .pathcache import CachedPath

__all__ = [
    "TE_MECHANISMS",
    "make_flow_policy",
    "install_packet_te",
    "SprayRouter",
    "install_spray_routing",
]

#: The bake-off's canonical mechanism names, in scorecard order.
TE_MECHANISMS = ("flowlet", "ecmp", "spray", "ecn")


class SprayRouter:
    """Packet-level pHost-style spraying: rotate every packet through
    the destination's cached primaries, ignoring flow identity.  (The
    receiver-driven half of pHost lives in :mod:`repro.core.phost`;
    this is just its path-spreading behaviour as a routing function.)
    """

    def __init__(self, agent: HostAgent) -> None:
        self.agent = agent
        self._next: Dict[str, int] = {}
        self.packets_sprayed = 0

    def __call__(
        self, agent: HostAgent, dst: str, flow_key: object
    ) -> Optional[CachedPath]:
        entry = agent.path_table.entry(dst)
        if entry is None or not entry.primaries:
            return None
        index = self._next.get(dst, 0)
        self._next[dst] = (index + 1) % len(entry.primaries)
        self.packets_sprayed += 1
        return entry.primaries[index % len(entry.primaries)]


def install_spray_routing(agent: HostAgent) -> SprayRouter:
    """Attach per-packet spraying to an agent; returns the router."""
    router = SprayRouter(agent)
    agent.routing_function = router
    return router


class _FirstPrimaryRouter:
    """``single``: pin every packet to the first cached primary."""

    def __call__(
        self, agent: HostAgent, dst: str, flow_key: object
    ) -> Optional[CachedPath]:
        entry = agent.path_table.entry(dst)
        if entry is None or not entry.primaries:
            return None
        return entry.primaries[0]


#: TE name -> fluid PathPolicy factory.  Every factory takes a kw-only
#: tail; ``k`` is common to all multipath mechanisms.
_FLOW_POLICIES: Dict[str, Callable[..., PathPolicy]] = {
    "flowlet": lambda *, k=4: RebalancingKPathPolicy(k=k),
    "ecmp": lambda *, k=4, seed=0: HashedKPathPolicy(k=k, seed=seed),
    "spray": lambda *, k=4: SprayKPathPolicy(k=k),
    "ecn": lambda *, k=4: EcnAwareKPathPolicy(k=k),
    "single": lambda: SingleShortestPolicy(),
}


def make_flow_policy(te: str, **kwargs) -> PathPolicy:
    """Build the fluid-level path policy for a TE mechanism name."""
    factory = _FLOW_POLICIES.get(te)
    if factory is None:
        raise ValueError(
            f"unknown TE mechanism {te!r}; pick from "
            f"{tuple(sorted(_FLOW_POLICIES))}"
        )
    return factory(**kwargs)


def install_packet_te(fabric, te: str, **kwargs) -> Dict[str, object]:
    """Install a TE mechanism's routing function on every host agent.

    Returns {host: router} for inspection (flowlet/ECN routers expose
    their counters).  ``"ecmp"`` maps to the agents' default behaviour
    -- hash the flow key onto one of the k cached paths -- so it clears
    any previously installed routing function.
    """
    # Here, not at module level: the fluid half must not load the emulator.
    from .ecn import install_ecn_rerouting
    from .flowlet import install_flowlet_routing

    routers: Dict[str, object] = {}
    for host, agent in fabric.agents.items():
        if te == "flowlet":
            routers[host] = install_flowlet_routing(agent, **kwargs)
        elif te == "ecn":
            routers[host] = install_ecn_rerouting(agent, **kwargs)
        elif te == "spray":
            routers[host] = install_spray_routing(agent, **kwargs)
        elif te == "single":
            agent.routing_function = _FirstPrimaryRouter()
            routers[host] = agent.routing_function
        elif te == "ecmp":
            agent.routing_function = None
        else:
            raise ValueError(
                f"unknown TE mechanism {te!r}; pick from "
                "('flowlet', 'ecmp', 'spray', 'ecn', 'single')"
            )
    return routers
