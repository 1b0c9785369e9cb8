"""Convenience assembly of a full DumbNet fabric.

:class:`DumbNetFabric` wires a :class:`~repro.topology.Topology` into a
live emulated network of :class:`~repro.core.switch.DumbSwitch` devices
and :class:`~repro.core.host_agent.HostAgent` hosts, one of which is the
:class:`~repro.core.controller.Controller`, and bootstraps the whole
thing: discovery, announcements, and optional warm path caches.

This is the primary public API: examples and benchmarks build fabrics
through it.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple, Union

from ..netsim.device import Device
from ..netsim.network import LinkSpec, Network
from ..netsim.trace import Tracer
from ..obs.fabric import FabricObs, Observation, observe_fabric
from ..topology.graph import Link, Topology
from .controller import Controller, ControllerConfig
from .discovery import DiscoveryResult
from .host_agent import AgentConfig, HostAgent
from .switch import DumbSwitch

__all__ = ["DumbNetFabric"]

#: What fail_link/restore_link accept besides the legacy 4-positional
#: form: a topology Link, a ((sw, port), (sw, port)) endpoint pair, or
#: a flat (sw, port, sw, port) tuple.
EdgeLike = Union[Link, Tuple]


def _edge_args(edge: EdgeLike) -> Tuple[str, int, str, int]:
    """Normalize an edge designator to (sw_a, port_a, sw_b, port_b)."""
    if isinstance(edge, Link):
        return (edge.a.switch, edge.a.port, edge.b.switch, edge.b.port)
    if isinstance(edge, tuple):
        if len(edge) == 4:
            sw_a, port_a, sw_b, port_b = edge
            return (sw_a, int(port_a), sw_b, int(port_b))
        if len(edge) == 2:
            (sw_a, port_a), (sw_b, port_b) = edge
            return (sw_a, int(port_a), sw_b, int(port_b))
    raise TypeError(
        f"expected a Link, (sw, port, sw, port), or ((sw, port), (sw, port)); "
        f"got {edge!r}"
    )


class DumbNetFabric:
    """A ready-to-run emulated DumbNet deployment."""

    def __init__(
        self,
        topology: Topology,
        controller_host: Optional[str] = None,
        *,
        agent_config: Optional[AgentConfig] = None,
        controller_config: Optional[ControllerConfig] = None,
        link_spec: Optional[LinkSpec] = None,
        host_link_spec: Optional[LinkSpec] = None,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        notify_script_delay_s: float = 0.0,
        switch_cls: Optional[type] = None,
        obs: bool = False,
    ) -> None:
        """Everything after ``controller_host`` is keyword-only: the
        tail is long, all-optional, and call sites that spelled the
        keywords out are unaffected.

        ``switch_cls`` swaps the switch implementation (default
        :class:`~repro.core.switch.DumbSwitch`); any subclass with the
        same constructor works, e.g. :class:`~repro.core.ecn.EcnSwitch`.

        ``obs=True`` builds a :class:`~repro.obs.fabric.FabricObs` hub
        (``fabric.obs``), clocked by the simulator and wired into every
        host agent and channel, hot-plugged ones included.  Off (the
        default) the fabric pays nothing beyond dormant ``is not None``
        gates.
        """
        if not topology.hosts:
            raise ValueError("a DumbNet fabric needs at least one host")
        self.topology = topology
        self.tracer = tracer if tracer is not None else Tracer()
        self.agent_config = agent_config or AgentConfig()
        self.controller_config = controller_config or ControllerConfig(
            proc_delay_s=self.agent_config.proc_delay_s
        )
        self.controller_host = controller_host or topology.hosts[0]
        if not topology.has_host(self.controller_host):
            raise ValueError(f"controller host {self.controller_host!r} not in topology")
        self._rng = random.Random(seed)
        self.agents: Dict[str, HostAgent] = {}
        self.controller: Optional[Controller] = None
        self.obs: Optional[FabricObs] = (
            FabricObs(clock=lambda: self.network.loop.now) if obs else None
        )

        switch_type = switch_cls or DumbSwitch

        def make_switch(name: str, num_ports: int, network: Network) -> Device:
            return switch_type(
                name,
                num_ports,
                network.loop,
                tracer=self.tracer,
                notify_script_delay_s=notify_script_delay_s,
            )

        def make_host(name: str, network: Network) -> Device:
            rng = random.Random(self._rng.randrange(2**31))
            if name == self.controller_host:
                agent: HostAgent = Controller(
                    name,
                    network.loop,
                    tracer=self.tracer,
                    config=self.controller_config,
                    rng=rng,
                )
                self.controller = agent  # type: ignore[assignment]
            else:
                agent = HostAgent(
                    name,
                    network.loop,
                    tracer=self.tracer,
                    config=self.agent_config,
                    rng=rng,
                )
            agent.obs = self.obs
            self.agents[name] = agent
            return agent

        self.network = Network(
            topology,
            switch_factory=make_switch,
            host_factory=make_host,
            link_spec=link_spec,
            host_link_spec=host_link_spec,
            seed=seed,
            tracer=self.tracer,
        )
        if self.obs is not None:
            self.network.attach_obs(self.obs)

        #: Flow-level dataplane (``from_topology(engine="fluid"|"hybrid")``):
        #: a FluidSimulator/HybridEngine over this topology, or None for
        #: the native packet-level emulation.
        self.engine = "packet"
        self.dataplane = None
        #: TE mechanism name installed via ``from_topology(te=...)``
        #: (None = default routing), and its per-host packet routers.
        self.te: Optional[str] = None
        self.te_routers: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # construction conveniences

    @classmethod
    def from_topology(
        cls,
        topology: Topology,
        *,
        bootstrap: Optional[str] = "discover",
        warm: bool = False,
        engine: str = "packet",
        roi=None,
        flow_policy=None,
        flow_net=None,
        te: Optional[str] = None,
        te_kwargs: Optional[Dict[str, Any]] = None,
        **kwargs,
    ) -> "DumbNetFabric":
        """Build a fabric and bring it live in one call.

        ``bootstrap`` picks how the controller gets its view:
        ``"discover"`` probes the fabric (:meth:`bootstrap`),
        ``"blueprint"`` adopts the ground-truth topology
        (:meth:`adopt_blueprint`), ``None`` leaves the fabric cold.
        ``warm`` additionally pre-populates every pair's path cache.

        ``engine`` selects the dataplane for traffic experiments:
        ``"packet"`` (default) is the native per-frame emulation and
        changes nothing; ``"fluid"`` and ``"hybrid"`` attach a
        flow-level dataplane as ``fabric.dataplane`` (a
        :class:`~repro.flowsim.FluidSimulator` or
        :class:`~repro.hybrid.HybridEngine` over the same topology).
        ``roi`` (a :class:`~repro.hybrid.RegionOfInterest`) names the
        traffic a hybrid engine promotes to packet fidelity;
        ``flow_policy``/``flow_net`` override the path policy and
        capacity graph.  Remaining keyword arguments go to the
        constructor.

        ``te`` selects a traffic-engineering mechanism by name
        (``"flowlet"``, ``"ecmp"``, ``"spray"``, ``"ecn"``,
        ``"single"`` -- see :mod:`repro.core.te`) at whichever fidelity
        the fabric runs: on ``engine="packet"`` it installs the
        mechanism's routing function on every host agent (inspect the
        routers via ``fabric.te_routers``); on fluid/hybrid it supplies
        the dataplane's path policy (mutually exclusive with
        ``flow_policy``).  ``te_kwargs`` tunes the mechanism (``k``,
        flowlet ``gap_s``, ECN thresholds...).
        """
        if engine not in ("packet", "fluid", "hybrid"):
            raise ValueError(
                f"engine must be 'packet', 'fluid', or 'hybrid'; got {engine!r}"
            )
        if engine == "packet" and (
            roi is not None or flow_policy is not None or flow_net is not None
        ):
            raise ValueError(
                "roi/flow_policy/flow_net only apply to engine='fluid'|'hybrid'"
            )
        if te is not None and flow_policy is not None:
            raise ValueError("pass either te= or flow_policy=, not both")
        fabric = cls(topology, **kwargs)
        if engine != "packet":
            from ..hybrid.engine import build_engine

            if te is not None:
                from .te import make_flow_policy

                flow_policy = make_flow_policy(te, **(te_kwargs or {}))
            fabric.dataplane = build_engine(
                topology, engine, roi=roi, policy=flow_policy, net=flow_net
            )
            fabric.engine = engine
        fabric.te = te
        if engine == "packet" and te is not None:
            from .te import install_packet_te

            fabric.te_routers = install_packet_te(fabric, te, **(te_kwargs or {}))
        if bootstrap == "discover":
            fabric.bootstrap()
        elif bootstrap == "blueprint":
            fabric.adopt_blueprint()
        elif bootstrap is not None:
            raise ValueError(
                f"bootstrap must be 'discover', 'blueprint', or None; "
                f"got {bootstrap!r}"
            )
        if warm:
            if bootstrap is None:
                raise ValueError("warm=True needs a bootstrapped fabric")
            fabric.warm_paths()
        return fabric

    # ------------------------------------------------------------------
    # observability

    def observe(self) -> Observation:
        """A read-only snapshot of every observable counter and metric.

        Works on any fabric; live histograms are present when the
        fabric was built with ``obs``.
        """
        return observe_fabric(self)

    # ------------------------------------------------------------------

    def bootstrap(self) -> DiscoveryResult:
        """Run discovery + controller announcements; fabric is then live."""
        assert self.controller is not None
        return self.controller.bootstrap(self.network)

    def adopt_blueprint(self) -> None:
        """Skip probing: install the ground-truth topology as the view.

        This is the "administrators manually enter topology
        configuration" bootstrap mode of Section 4.1; useful when an
        experiment does not measure discovery itself.
        """
        assert self.controller is not None
        self.controller.adopt_view(self.topology.copy())
        self.controller.announce_all()
        self.network.run_until_idle()

    def warm_paths(self, pairs: Optional[List[Tuple[str, str]]] = None) -> None:
        """Pre-populate path caches for host pairs (default: all pairs).

        Sends a one-byte warm-up message through the normal send path so
        every pair has its PathTable entry before measurement starts.
        """
        hosts = self.topology.hosts
        if pairs is None:
            pairs = [(a, b) for a in hosts for b in hosts if a != b]
        for src, dst in pairs:
            self.agents[src].send_app(dst, ("warmup", src, dst), payload_bytes=1)
        self.network.run_until_idle()

    # ------------------------------------------------------------------
    # hot-plug

    def hotplug_host(self, host: str, switch: str, port: int) -> HostAgent:
        """Plug a brand-new host into the running fabric.

        The switch raises port-up, the controller reprobes the port,
        discovers the host, records it (replicated), and announces
        itself -- after which the newcomer is a first-class citizen.
        Run the loop (``run_until_idle``) to let all of that happen.
        """
        device = self.network.hotplug_host(host, switch, port)
        assert isinstance(device, HostAgent)
        return device

    def hotplug_switch(
        self,
        switch: str,
        num_ports: int,
        links: List[Tuple[int, str, int]],
    ) -> Device:
        """Rack a brand-new switch into the running fabric.

        ``links`` lists the cables as ``(new switch port, existing
        switch, existing port)``.  Every existing switch raises
        port-up, the controller reprobes, meets an unknown switch ID,
        and escalates into incremental rediscovery -- mapping all of
        the newcomer's links and hosts without a full re-discovery.
        Run the loop (``run_until_idle``) to let all of that happen.
        """
        return self.network.hotplug_switch(switch, num_ports, tuple(links))

    # ------------------------------------------------------------------
    # delegation helpers

    def agent(self, host: str) -> HostAgent:
        return self.agents[host]

    @property
    def loop(self):
        return self.network.loop

    @property
    def now(self) -> float:
        return self.network.now

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        return self.network.run(until=until, max_events=max_events)

    def run_until_idle(self, max_events: int = 50_000_000) -> int:
        return self.network.run_until_idle(max_events=max_events)

    def fail_link(
        self,
        edge: Union[EdgeLike, str],
        port_a: Optional[int] = None,
        sw_b: Optional[str] = None,
        port_b: Optional[int] = None,
    ) -> None:
        """Cut a switch-switch cable.

        Takes a topology :class:`~repro.topology.graph.Link`, a
        ``(sw, port, sw, port)`` tuple, or a pair of ``(sw, port)``
        endpoints; the legacy 4-positional-argument form still works.
        """
        self.network.fail_link(*self._edge(edge, port_a, sw_b, port_b))

    def restore_link(
        self,
        edge: Union[EdgeLike, str],
        port_a: Optional[int] = None,
        sw_b: Optional[str] = None,
        port_b: Optional[int] = None,
    ) -> None:
        """Restore a cut cable; accepts the same forms as :meth:`fail_link`."""
        self.network.restore_link(*self._edge(edge, port_a, sw_b, port_b))

    @staticmethod
    def _edge(
        edge: Union[EdgeLike, str],
        port_a: Optional[int],
        sw_b: Optional[str],
        port_b: Optional[int],
    ) -> Tuple[str, int, str, int]:
        if port_a is None and sw_b is None and port_b is None:
            return _edge_args(edge)  # type: ignore[arg-type]
        if port_a is None or sw_b is None or port_b is None:
            raise TypeError(
                "pass a single edge designator or all four of "
                "(sw_a, port_a, sw_b, port_b)"
            )
        return (edge, port_a, sw_b, port_b)  # type: ignore[return-value]

    def fail_switch(self, switch: str) -> None:
        self.network.fail_switch(switch)
