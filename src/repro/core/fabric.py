"""The one assembly of a full DumbNet fabric.

:class:`DumbNetFabric` wires a :class:`~repro.topology.Topology` into a
live emulated network of :class:`~repro.core.switch.DumbSwitch` devices
and :class:`~repro.core.host_agent.HostAgent` hosts, one of which is the
:class:`~repro.core.controller.Controller`, and bootstraps the whole
thing: discovery, announcements, and optional warm path caches.  Hosts
named as ``standbys`` are controller replicas (Section 4.1): once the
primary has a view they join a
:class:`~repro.core.replication.ReplicatedControlPlane`
(``fabric.plane``), and ``fabric.controller`` follows failover.

This is the primary public API: examples, benchmarks and the chaos
harness build fabrics through it.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

from ..netsim.device import Device
from ..netsim.network import LinkSpec, Network
from ..netsim.trace import Tracer
from ..obs.fabric import FabricObs, Observation, observe_fabric
from ..topology.graph import Link, Topology
from .controller import Controller, ControllerConfig
from .discovery import DiscoveryResult
from .host_agent import HostAgent
from .switch import DumbSwitch

if TYPE_CHECKING:
    from .replication import ReplicatedControlPlane

__all__ = ["DumbNetFabric"]

def _edge_args(
    edge: Union[Link, str],
    port_a: Optional[int],
    sw_b: Optional[str],
    port_b: Optional[int],
) -> Tuple[str, int, str, int]:
    """Normalize a cable designator -- a topology Link, or the four
    coordinates (sw_a, port_a, sw_b, port_b) -- to the coordinates."""
    rest = (port_a, sw_b, port_b)
    if isinstance(edge, Link) and rest == (None, None, None):
        return (edge.a.switch, edge.a.port, edge.b.switch, edge.b.port)
    if isinstance(edge, str) and None not in rest:
        return (edge, port_a, sw_b, port_b)  # type: ignore[return-value]
    raise TypeError(
        f"pass a Link or all four of (sw_a, port_a, sw_b, port_b); "
        f"got {(edge,) + rest!r}"
    )


class DumbNetFabric:
    """A ready-to-run emulated DumbNet deployment."""

    def __init__(
        self,
        topology: Topology,
        controller_host: Optional[str] = None,
        *,
        controller_config: Optional[ControllerConfig] = None,
        link_spec: Optional[LinkSpec] = None,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        notify_script_delay_s: float = 0.0,
        switch_cls: Optional[type] = None,
        obs: bool = False,
        standbys: Sequence[str] = (),
    ) -> None:
        """Everything after ``controller_host`` is keyword-only: the
        tail is long, all-optional, and call sites that spelled the
        keywords out are unaffected.

        ``switch_cls`` swaps the switch implementation (default
        :class:`~repro.core.switch.DumbSwitch`); any subclass with the
        same constructor works, e.g. :class:`~repro.core.ecn.EcnSwitch`.

        ``obs=True`` builds a :class:`~repro.obs.fabric.FabricObs` hub
        (``fabric.obs``), wired into every host agent and channel,
        hot-plugged ones included.  Off (the default) the fabric pays
        nothing beyond dormant ``is not None`` gates.

        ``standbys`` names the hosts that run controller replicas
        beside ``controller_host``; they join ``fabric.plane`` once
        the primary has a view (:meth:`bootstrap` or
        :meth:`adopt_blueprint`).
        """
        if not topology.hosts:
            raise ValueError("a DumbNet fabric needs at least one host")
        self.topology = topology
        self.tracer = tracer if tracer is not None else Tracer()
        self.controller_config = controller_config or ControllerConfig()
        self.controller_host = controller_host or topology.hosts[0]
        if not topology.has_host(self.controller_host):
            raise ValueError(f"controller host {self.controller_host!r} not in topology")
        self.standbys: Tuple[str, ...] = tuple(standbys)
        controller_hosts = {self.controller_host, *self.standbys}
        if len(controller_hosts) != 1 + len(self.standbys) or not all(
            map(topology.has_host, self.standbys)
        ):
            raise ValueError(
                f"standbys must be distinct topology hosts other than "
                f"{self.controller_host!r}; got {self.standbys!r}"
            )
        self._rng = random.Random(seed)
        self.agents: Dict[str, HostAgent] = {}
        #: The replicated control plane, once the primary has a view;
        #: None on a fabric without standbys.
        self.plane: Optional["ReplicatedControlPlane"] = None
        self.obs: Optional[FabricObs] = FabricObs() if obs else None

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
            if name in controller_hosts:
                agent: HostAgent = Controller(
                    name,
                    network.loop,
                    tracer=self.tracer,
                    config=self.controller_config,
                    rng=rng,
                )
            else:
                agent = HostAgent(name, network.loop, tracer=self.tracer, rng=rng)
            agent.obs = self.obs
            self.agents[name] = agent
            return agent

        self.network = Network(
            topology,
            switch_factory=make_switch,
            host_factory=make_host,
            link_spec=link_spec,
            seed=seed,
            tracer=self.tracer,
        )
        if self.obs is not None:
            self.network.attach_obs(self.obs)

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

        ``te`` selects a traffic-engineering mechanism by name
        (``"flowlet"``, ``"ecmp"``, ``"spray"``, ``"ecn"``,
        ``"single"`` -- see :mod:`repro.core.te`) and installs its
        routing function on every host agent (inspect the routers via
        ``fabric.te_routers``); ``te_kwargs`` tunes the mechanism
        (``k``, flowlet ``gap_s``, ECN thresholds...).  Remaining
        keyword arguments go to the constructor.

        Flow-level traffic experiments (fluid / hybrid fidelity) run
        through :func:`repro.workloads.run_scenario` instead.
        """
        fabric = cls(topology, **kwargs)
        fabric.te = te
        if te is not None:
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

    @property
    def controller(self) -> Controller:
        """The serving controller: the plane's primary once standbys
        replicate it (so it follows failover), else the bootstrap one."""
        if self.plane is not None:
            return self.plane.primary
        return self.agents[self.controller_host]  # type: ignore[return-value]

    def _join_standbys(self) -> None:
        """Form the replicated plane once the primary has a view."""
        if not self.standbys or self.plane is not None:
            return
        # Loaded here: a fabric without standbys never imports consensus/.
        from .replication import ReplicatedControlPlane

        self.plane = ReplicatedControlPlane(
            self.network,
            self.controller,
            [self.agents[name] for name in self.standbys],  # type: ignore[arg-type]
        )

    def bootstrap(self) -> DiscoveryResult:
        """Run discovery + controller announcements; fabric is then live."""
        result = self.controller.bootstrap(self.network)
        self._join_standbys()
        return result

    def adopt_blueprint(self) -> None:
        """Skip probing: install the ground-truth topology as the view.

        This is the "administrators manually enter topology
        configuration" bootstrap mode of Section 4.1; useful when an
        experiment does not measure discovery itself.
        """
        self.controller.adopt_view(self.topology.copy())
        self.controller.announce_all()
        self.network.run_until_idle()
        self._join_standbys()

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
        port-up, and the controller's probe run on that port meets an
        unknown switch ID and recurses into the newcomer's ports --
        mapping all of its links and hosts without a full
        re-discovery.
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
        edge: Union[Link, str],
        port_a: Optional[int] = None,
        sw_b: Optional[str] = None,
        port_b: Optional[int] = None,
    ) -> None:
        """Cut a switch-switch cable, named by a topology
        :class:`~repro.topology.graph.Link` or by its four coordinates
        ``(sw_a, port_a, sw_b, port_b)``."""
        self.network.fail_link(*_edge_args(edge, port_a, sw_b, port_b))

    def restore_link(
        self,
        edge: Union[Link, str],
        port_a: Optional[int] = None,
        sw_b: Optional[str] = None,
        port_b: Optional[int] = None,
    ) -> None:
        """Restore a cut cable; accepts the same forms as :meth:`fail_link`."""
        self.network.restore_link(*_edge_args(edge, port_a, sw_b, port_b))

    def fail_switch(self, switch: str) -> None:
        self.network.fail_switch(switch)
