"""Execute a :class:`~repro.faultinject.schedule.FaultSchedule` against
a live fabric while watching invariants.

The runner is fully deterministic: fabric construction draws every rng
from one ``random.Random(seed)``, the schedule fires through the
simulator's virtual clock, and the applied-fault timeline (what
:meth:`ChaosReport.timeline_digest` hashes) contains only schedule
text -- two runs with the same (topology, schedule, seed) produce the
same digest byte for byte.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..core.controller import Controller, ControllerConfig
from ..core.host_agent import AgentConfig, HostAgent
from ..core.replication import ReplicatedControlPlane
from ..core.switch import DumbSwitch
from ..netsim.network import LinkSpec, Network
from ..netsim.trace import Tracer
from ..obs.report import ReportBase
from ..topology.graph import Topology
from .invariants import (
    Violation,
    check_no_dead_paths,
    continuous_invariants,
    residual_topology,
)
from .schedule import FaultEvent, FaultSchedule

__all__ = ["ChaosFabric", "ChaosReport", "ChaosRunner", "build_chaos_fabric"]


@dataclass
class ChaosFabric:
    """A live fabric plus everything a schedule can act on."""

    topology: Topology
    network: Network
    agents: Dict[str, HostAgent]
    controller_hosts: Tuple[str, ...]
    plane: Optional[ReplicatedControlPlane]
    tracer: Tracer

    @property
    def controller(self) -> Controller:
        if self.plane is not None:
            return self.plane.current_primary
        agent = self.agents[self.controller_hosts[0]]
        assert isinstance(agent, Controller)
        return agent

    @property
    def loop(self):
        return self.network.loop

    @classmethod
    def wrap(cls, fabric) -> "ChaosFabric":
        """Adapt a :class:`~repro.core.fabric.DumbNetFabric` (no
        standby controllers) so schedules can target it -- used by
        benchmarks that build their fabric elsewhere."""
        return cls(
            topology=fabric.topology,
            network=fabric.network,
            agents=fabric.agents,
            controller_hosts=(fabric.controller_host,),
            plane=None,
            tracer=fabric.tracer,
        )


def build_chaos_fabric(
    topology: Topology,
    seed: int = 0,
    controller_hosts: Optional[Sequence[str]] = None,
    n_controllers: int = 3,
    link_spec: Optional[LinkSpec] = None,
    host_link_spec: Optional[LinkSpec] = None,
    agent_config: Optional[AgentConfig] = None,
    controller_config: Optional[ControllerConfig] = None,
) -> ChaosFabric:
    """A DumbNet fabric with standby controllers, ready for chaos.

    The first ``n_controllers`` hosts (sorted by name) become
    controller-capable unless ``controller_hosts`` picks them
    explicitly; the first of those bootstraps as primary and the rest
    join a :class:`~repro.core.replication.ReplicatedControlPlane` so
    schedules can exercise ``controller-failover`` events.  Every rng
    in the fabric derives from ``seed``.
    """
    if controller_hosts is None:
        controller_hosts = tuple(sorted(topology.hosts)[:n_controllers])
    else:
        controller_hosts = tuple(controller_hosts)
    if not controller_hosts:
        raise ValueError("need at least one controller host")
    master = random.Random(seed)
    tracer = Tracer()
    agents: Dict[str, HostAgent] = {}
    controller_set = set(controller_hosts)

    def make_switch(name: str, ports: int, network: Network) -> DumbSwitch:
        return DumbSwitch(name, ports, network.loop, tracer=tracer)

    def make_host(name: str, network: Network) -> HostAgent:
        rng = random.Random(master.randrange(2**31))
        if name in controller_set:
            agent: HostAgent = Controller(
                name, network.loop, tracer=tracer,
                config=controller_config, rng=rng,
            )
        else:
            agent = HostAgent(
                name, network.loop, tracer=tracer,
                config=agent_config, rng=rng,
            )
        agents[name] = agent
        return agent

    network = Network(
        topology,
        make_switch,
        make_host,
        link_spec=link_spec,
        host_link_spec=host_link_spec,
        seed=master.randrange(2**31),
        tracer=tracer,
    )
    primary = agents[controller_hosts[0]]
    assert isinstance(primary, Controller)
    primary.adopt_view(topology.copy())
    primary.announce_all()
    network.run_until_idle()
    plane: Optional[ReplicatedControlPlane] = None
    if len(controller_hosts) > 1:
        standbys = [agents[name] for name in controller_hosts[1:]]
        plane = ReplicatedControlPlane(network, primary, standbys)
    return ChaosFabric(
        topology=topology,
        network=network,
        agents=agents,
        controller_hosts=controller_hosts,
        plane=plane,
        tracer=tracer,
    )


@dataclass
class ChaosReport(ReportBase):
    """What a chaos run did and what it found."""

    applied: List[str] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    checks_run: int = 0
    traffic_sent: int = 0
    traffic_delivered: int = 0
    reconnected_pairs: int = 0
    failed_pairs: List[Tuple[str, str]] = field(default_factory=list)
    horizon: float = 0.0
    quiesce_time: float = 0.0
    #: Simulator events executed by this run (fault application, traffic,
    #: invariant ticks, quiesce pings) -- the denominator for chaos
    #: throughput.
    events_run: int = 0
    #: Controller path-service counters summed over every controller
    #: agent (primary + standbys) at quiesce.
    path_service: Dict[str, int] = field(default_factory=dict)

    def ok(self) -> bool:
        return not self.violations and not self.failed_pairs

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": "chaos-report",
            "ok": self.ok(),
            "applied": list(self.applied),
            "violations": [str(v) for v in self.violations],
            "checks_run": self.checks_run,
            "traffic_sent": self.traffic_sent,
            "traffic_delivered": self.traffic_delivered,
            "reconnected_pairs": self.reconnected_pairs,
            "failed_pairs": [list(pair) for pair in self.failed_pairs],
            "horizon": self.horizon,
            "quiesce_time": self.quiesce_time,
            "events_run": self.events_run,
            "path_service": dict(self.path_service),
            "timeline_digest": self.timeline_digest(),
        }

    def timeline_digest(self) -> str:
        """sha256 over the applied-fault lines: byte-for-byte equal
        across runs of the same (topology, schedule, seed)."""
        return hashlib.sha256("\n".join(self.applied).encode()).hexdigest()

    def summary(self) -> str:
        lines = [
            f"faults applied:     {len(self.applied)}",
            f"invariant checks:   {self.checks_run}",
            f"violations:         {len(self.violations)}",
            f"chaos traffic:      {self.traffic_delivered}/{self.traffic_sent} delivered",
            f"reconnected pairs:  {self.reconnected_pairs}",
            f"unreachable pairs:  {len(self.failed_pairs)}",
            f"quiesced at:        {self.quiesce_time:.3f}s "
            f"(horizon {self.horizon:.3f}s)",
            f"simulator events:   {self.events_run}",
            f"timeline digest:    {self.timeline_digest()}",
        ]
        if self.path_service:
            ps = self.path_service
            lines.append(
                "path service:       "
                f"{ps.get('hits', 0)} hits / {ps.get('misses', 0)} misses, "
                f"{ps.get('link_evictions', 0)} link evictions, "
                f"{ps.get('flushes', 0)} flushes, "
                f"{ps.get('restores', 0)} restores"
            )
        for violation in self.violations[:20]:
            lines.append(f"  VIOLATION {violation}")
        for src, dst in self.failed_pairs[:20]:
            lines.append(f"  UNREACHABLE {src} -> {dst}")
        return "\n".join(lines)


class ChaosRunner:
    """Fire a schedule at a fabric; check invariants; verify recovery.

    While the timeline runs, a seeded background workload keeps flows
    bound so failovers actually happen, and
    :func:`~repro.faultinject.invariants.continuous_invariants` runs
    every ``check_interval_s``.  After the horizon the loop drains and
    the runner asserts quiesce conditions: no cached path crosses a
    physically-down port and every host pair that is still physically
    connected can exchange traffic (retrying with a cache flush to
    model an application-level timeout).
    """

    #: Ping retries at quiesce; from the second attempt the source
    #: forgets its cached entry, forcing a fresh controller query.
    RECONNECT_ATTEMPTS = 4

    def __init__(
        self,
        fabric: ChaosFabric,
        schedule: FaultSchedule,
        check_interval_s: float = 0.02,
        settle_s: float = 0.25,
        traffic_pairs: int = 4,
        traffic_seed: int = 7,
    ) -> None:
        self.fabric = fabric
        self.schedule = schedule
        self.check_interval_s = check_interval_s
        self.settle_s = settle_s
        self.traffic_pairs = traffic_pairs
        self.traffic_rng = random.Random(traffic_seed)
        self.report = ChaosReport()
        self._ping_seq = 0

    # ------------------------------------------------------------------
    # fault application

    def _apply(self, event: FaultEvent) -> None:
        args = event.args
        if event.resolver is not None:
            args = tuple(event.resolver(self.fabric))
        line = event.describe(args)
        self.report.applied.append(line)
        self.fabric.tracer.record(self.fabric.loop.now, "fault-applied", event.kind, line)
        network = self.fabric.network
        kind = event.kind
        if kind == "link-down":
            network.fail_link(*args)
        elif kind == "link-up":
            network.restore_link(*args)
        elif kind in ("loss-start", "loss-end",
                      "delay-start", "delay-end",
                      "dup-start", "dup-end"):
            self._apply_channel(kind, args)
        elif kind == "switch-crash":
            network.fail_switch(args[0])
        elif kind == "switch-restart":
            network.restore_switch(args[0])
        elif kind == "switch-join":
            switch, num_ports, links = args
            network.hotplug_switch(switch, num_ports, tuple(links))
        elif kind == "host-partition":
            network.host_channel(args[0]).fail()
        elif kind == "host-rejoin":
            network.host_channel(args[0]).restore()
        elif kind == "controller-failover":
            if self.fabric.plane is None:
                raise RuntimeError(
                    "controller-failover needs a fabric with standbys "
                    "(build_chaos_fabric with n_controllers >= 2)"
                )
            self.fabric.plane.fail_primary()
        else:  # pragma: no cover - FaultEvent validates kinds
            raise RuntimeError(f"unhandled fault kind {kind!r}")

    def _apply_channel(self, kind: str, args: Tuple) -> None:
        network = self.fabric.network
        if args[0] == "link":
            channel = network.link_channel(*args[1:5])
            value_args = args[5:]
        elif args[0] == "host":
            channel = network.host_channel(args[1])
            value_args = args[2:]
        else:
            raise RuntimeError(f"bad channel target {args!r}")
        if kind == "loss-start":
            channel.loss_rate = value_args[0]
        elif kind == "loss-end":
            channel.loss_rate = 0.0
        elif kind == "delay-start":
            channel.extra_latency_s = value_args[0]
        elif kind == "delay-end":
            channel.extra_latency_s = 0.0
        elif kind == "dup-start":
            channel.duplicate_rate = value_args[0]
        else:
            channel.duplicate_rate = 0.0

    # ------------------------------------------------------------------
    # background workload + continuous checks

    def _live_hosts(self) -> List[str]:
        network = self.fabric.network
        return sorted(
            name
            for name, device in network.hosts.items()
            if device.powered and network.host_channel(name).up
        )

    def _tick(self, end_time: float) -> None:
        loop = self.fabric.loop
        self.report.checks_run += 1
        self.report.violations.extend(
            continuous_invariants(self.fabric.agents, loop.now)
        )
        hosts = self._live_hosts()
        if len(hosts) >= 2:
            for _ in range(self.traffic_pairs):
                src, dst = self.traffic_rng.sample(hosts, 2)
                self.fabric.agents[src].send_app(
                    dst, ("chaos-traffic", self.report.traffic_sent),
                    flow_key=f"chaos-{src}-{dst}",
                )
                self.report.traffic_sent += 1
        next_t = loop.now + self.check_interval_s
        if next_t <= end_time:
            loop.schedule(self.check_interval_s, self._tick, end_time)

    # ------------------------------------------------------------------
    # quiesce checks

    def _count_chaos_deliveries(self) -> None:
        self.report.traffic_delivered = sum(
            1
            for agent in self.fabric.agents.values()
            for _t, _src, payload in agent.delivered
            if isinstance(payload, tuple) and payload[:1] == ("chaos-traffic",)
        )

    def _reachable_pairs(self) -> List[Tuple[str, str]]:
        """Host pairs still physically connected at quiesce."""
        residual = residual_topology(self.fabric.network)
        component: Dict[str, int] = {}
        next_id = 0
        adjacency: Dict[str, Set[str]] = {
            sw: set() for sw in residual.switches
        }
        for link in residual.links:
            adjacency[link.a.switch].add(link.b.switch)
            adjacency[link.b.switch].add(link.a.switch)
        for sw in sorted(residual.switches):
            if sw in component:
                continue
            stack = [sw]
            component[sw] = next_id
            while stack:
                for peer in adjacency[stack.pop()]:
                    if peer not in component:
                        component[peer] = next_id
                        stack.append(peer)
            next_id += 1
        host_comp = {
            host: component[residual.host_port(host).switch]
            for host in residual.hosts
        }
        hosts = sorted(host_comp)
        return [
            (a, b)
            for i, a in enumerate(hosts)
            for b in hosts[i + 1:]
            if host_comp[a] == host_comp[b]
        ]

    def _ping(self, src: str, dst: str) -> bool:
        agents = self.fabric.agents
        network = self.fabric.network
        before = len(agents[dst].delivered)
        for attempt in range(self.RECONNECT_ATTEMPTS):
            if attempt >= 1:
                # Model an application retry after timeout: flush the
                # cached entry so the next send asks the (possibly just
                # promoted) controller for a fresh path.
                agents[src].path_table.forget(dst)
            self._ping_seq += 1
            token = ("chaos-ping", self._ping_seq)
            agents[src].send_app(dst, token, flow_key=token)
            network.run_until_idle()
            if any(
                payload == token
                for _t, _src, payload in agents[dst].delivered[before:]
            ):
                return True
        return False

    # ------------------------------------------------------------------

    def install(self) -> None:
        """Schedule the timeline's fault applications on the fabric's
        loop WITHOUT invariant ticks or quiesce verification.  For
        benchmarks that drive their own workload and measurement but
        want scripted, resolver-capable fault timing."""
        for event in self.schedule.events():
            self.fabric.loop.schedule(event.time, self._apply, event)

    def run(self) -> ChaosReport:
        fabric = self.fabric
        loop = fabric.loop
        report = self.report
        report.horizon = self.schedule.horizon
        end_time = loop.now + report.horizon + self.settle_s

        self.install()
        loop.schedule(0.0, self._tick, end_time)

        events_before = loop.events_run
        fabric.network.run(until=end_time)
        fabric.network.run_until_idle()
        report.quiesce_time = loop.now
        # pending is an O(1) maintained counter; a non-zero value here
        # would mean run_until_idle lied about quiescence.
        assert loop.pending == 0

        # Quiesce: one last continuous pass, then ground-truth checks.
        report.checks_run += 1
        report.violations.extend(
            continuous_invariants(fabric.agents, loop.now)
        )
        report.violations.extend(
            check_no_dead_paths(fabric.agents, fabric.network, loop.now)
        )
        for src, dst in self._reachable_pairs():
            if self._ping(src, dst) and self._ping(dst, src):
                report.reconnected_pairs += 1
            else:
                report.failed_pairs.append((src, dst))
        self._count_chaos_deliveries()
        report.events_run = loop.events_run - events_before
        for agent in fabric.agents.values():
            if isinstance(agent, Controller):
                for name, value in agent.path_service.stats.as_dict().items():
                    report.path_service[name] = (
                        report.path_service.get(name, 0) + value
                    )
        return report
