"""Host-driven topology discovery and rediscovery (Sections 4.1, 4.2).

A single host -- in practice the controller -- maps the fabric using
nothing but the dumb switches' two dataplane behaviours: tag forwarding
and the tag-0 ID query.  One probe grammar does all the work:

* a host probe per open port (``tags + (q,)`` with a return route),
* a bounce probe per candidate back-port (``tags + (q, 0, r) + back``),
* a verification probe per surviving candidate (``tags + (q, r, 0) +
  back``) to separate real back-ports from coincidental multi-hop
  returns.

:class:`RediscoveryEngine` is the one frontier BFS that speaks it.  It
expands a view from *frontier ports*, and it has two seeds.  At boot
(:func:`discover`) the view is empty and the only frontier is the
origin's own switch, found by a phase-0 port search.  Afterwards (the
controller's link-up probe runs) the frontiers are the ports that
raised link-up: Section 4.2's "probe the ports to discover and verify
the newly added links and switches" -- the *ports*, not the fabric --
so a one-switch delta costs O(dirty ports * P) probes instead of the
bootstrap's O(N * P^2).

When a bounce names a switch the view has never seen, the engine adds
it, derives its probe routes from the parent's (no shortest-path runs
mid-expansion), and enqueues *all* of the newcomer's open ports as new
frontiers -- the recursion that turns "one unknown neighbor" into a
complete map of whatever subgraph is behind it.

The engine is sans-IO: it hands out bounded batches of
:class:`ProbeSpec` (:meth:`RediscoveryEngine.next_round`) and consumes
their outcomes (:meth:`RediscoveryEngine.feed`).  Two drivers wrap it:

* :func:`discover` pulls bootstrap's rounds through a blocking
  :class:`ProbeTransport`;
* :class:`AsyncProbeDriver` pipelines rounds over a live host agent on
  the event loop, one bounded outstanding-probe window per settle
  period -- what every controller probe run after bootstrap uses.

A probe run reports every confirmed element as a
:class:`~repro.core.messages.TopologyChange` through the caller's
``on_change`` hook *as it lands*, and the controller logs each one, so
replicas follow a probe run delta by delta.  Bootstrap is still a bulk
view swap: :func:`discover` returns a whole view and the controller
installs it with ``adopt_view``, which logs one ``adopt-view`` marker;
standbys on promotion, the chaos harness and the blueprint fabric take
a whole view through ``adopt_view`` too.  ROADMAP item 2 removes that
swap by running bootstrap through the log.

Transports come in two kinds:

* :class:`~repro.core.host_agent.EmulatedProbeTransport` drives a real
  host agent inside the discrete-event emulator: every probe is an
  actual packet crossing actual channels, and discovery time is the
  emulator clock.
* :class:`OracleProbeTransport` computes each probe's outcome directly
  on the ground-truth topology and charges a calibrated per-message
  controller cost.  It produces identical discovery results and exact
  message counts at scales where packet-level emulation is too slow
  (Figure 8 sweeps up to 500 switches x 64 ports = millions of probes).

Both count messages the same way, so Figure 8's "time is proportional
to probe count" claim is tested, not assumed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from ..topology.graph import HostAttachment, PortRef, Topology
from .messages import TopologyChange
from .packet import ID_QUERY

__all__ = [
    "ProbeSpec",
    "ProbeOutcome",
    "ProbeTransport",
    "OracleProbeTransport",
    "DiscoveryStats",
    "DiscoveryResult",
    "DiscoveryError",
    "discover",
    "verify_expected_topology",
    "VerificationReport",
    "route_tags",
    "RediscoveryEngine",
    "AsyncProbeDriver",
    "DEFAULT_PROBE_WINDOW",
]


class DiscoveryError(RuntimeError):
    """Discovery could not even find the origin's own switch."""


@dataclass(frozen=True)
class ProbeSpec:
    """One probing message: header tags plus (for host probes) the
    return route carried in the payload."""

    tags: Tuple[int, ...]
    reply_tags: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ProbeOutcome:
    """What came back for one probe.  ``None`` at the transport level
    means the probe was lost (scenario (i) in Section 3.3)."""

    kind: str  # "id" (bounce with SwitchIDReply) or "host" (ProbeReply)
    switch_id: Optional[str] = None
    host: Optional[str] = None
    #: Counter snapshot when the replying switch is a StatsSwitch.
    stats: Optional[Tuple[Tuple[str, int], ...]] = None


class ProbeTransport:
    """Sends a batch of probes and collects their outcomes."""

    max_ports: int

    def probe_round(self, specs: Sequence[ProbeSpec]) -> List[Optional[ProbeOutcome]]:
        raise NotImplementedError

    @property
    def probes_sent(self) -> int:
        raise NotImplementedError

    @property
    def replies_received(self) -> int:
        raise NotImplementedError

    def elapsed(self) -> float:
        """Simulated (or modeled) seconds spent so far."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Oracle transport

#: Default modeled controller cost per probe handled (send or receive).
#: Calibrated so 500 64-port switches (~2M probes) take ~60-70 s, the
#: magnitude Figure 8(a) reports for the paper's single-node emulator.
DEFAULT_PER_MESSAGE_COST_S = 16e-6


class OracleProbeTransport(ProbeTransport):
    """Computes probe outcomes straight from the ground-truth topology.

    The oracle walks every probe tag-by-tag with the exact dataplane
    semantics of :class:`~repro.core.switch.DumbSwitch`, including the
    payload-replacement behaviour of the ID query, and walks host
    replies back along their return routes.  It never reveals anything
    a real probe would not.
    """

    def __init__(
        self,
        topology: Topology,
        origin: str,
        per_message_cost_s: float = DEFAULT_PER_MESSAGE_COST_S,
    ) -> None:
        self.topology = topology
        self.origin = origin
        self.per_message_cost_s = per_message_cost_s
        self.max_ports = max(
            (topology.num_ports(sw) for sw in topology.switches), default=0
        )
        self._sent = 0
        self._received = 0

    # -- transport interface ------------------------------------------

    @property
    def probes_sent(self) -> int:
        return self._sent

    @property
    def replies_received(self) -> int:
        return self._received

    def elapsed(self) -> float:
        return (self._sent + self._received) * self.per_message_cost_s

    def probe_round(self, specs: Sequence[ProbeSpec]) -> List[Optional[ProbeOutcome]]:
        outcomes = []
        for spec in specs:
            self._sent += 1
            outcome = self._walk(spec)
            if outcome is not None:
                self._received += 1
            outcomes.append(outcome)
        return outcomes

    # -- dataplane walk -------------------------------------------------

    def _walk(self, spec: ProbeSpec) -> Optional[ProbeOutcome]:
        landing = self._follow_tags(self.origin, spec.tags)
        if landing is None:
            return None
        host, id_reply = landing
        if host == self.origin:
            # The probe bounced back to the prober.
            if id_reply is not None:
                return ProbeOutcome(kind="id", switch_id=id_reply)
            return None  # a tagged packet with no query bounced; ignored
        # Delivered to another host: it replies along spec.reply_tags.
        if not spec.reply_tags:
            return None
        self._sent += 1  # the remote host's reply is also a message
        reply_landing = self._follow_tags(host, spec.reply_tags)
        if reply_landing is None or reply_landing[0] != self.origin:
            return None
        return ProbeOutcome(kind="host", host=host)

    def _follow_tags(
        self, from_host: str, tags: Sequence[int]
    ) -> Optional[Tuple[str, Optional[str]]]:
        """Deliver a tag list exactly as the dumb switches would.

        Returns (receiving host, ID-reply switch or None), or None when
        the packet is dropped anywhere along the way.
        """
        topo = self.topology
        current = topo.host_port(from_host).switch
        id_reply: Optional[str] = None
        i = 0
        n = len(tags)
        while True:
            if i >= n:
                return None  # tags exhausted on a switch: dropped
            tag = tags[i]
            i += 1
            if tag == ID_QUERY:
                if id_reply is not None:
                    return None  # double query: malformed, dropped
                id_reply = current
                if i >= n:
                    return None
                tag = tags[i]
                i += 1
                if tag == ID_QUERY:
                    return None
            if tag < 1 or tag > topo.num_ports(current):
                return None
            peer = topo.peer(current, tag)
            if peer is None:
                return None  # empty port: lost
            if isinstance(peer, HostAttachment):
                if i != n:
                    return None  # host got extra tags: dropped by agent
                return (peer.host, id_reply)
            assert isinstance(peer, PortRef)
            current = peer.switch


# ----------------------------------------------------------------------
# Probe rounds and routes


@dataclass
class DiscoveryStats:
    probes_sent: int = 0
    replies_received: int = 0
    rounds: int = 0
    verifications: int = 0
    ambiguities_resolved: int = 0
    #: Probes re-sent because their first attempt came back empty
    #: (only non-zero when the caller enables ``probe_retries``).
    probes_retried: int = 0
    elapsed_s: float = 0.0


def _retrying_round(
    transport: ProbeTransport,
    stats: DiscoveryStats,
    specs: Sequence[ProbeSpec],
    probe_retries: int,
) -> List[Optional[ProbeOutcome]]:
    """One probe round, re-sending unanswered probes up to
    ``probe_retries`` extra times.

    A probe with no outcome is indistinguishable from a probe into an
    empty port (scenario (i) in Section 3.3), so with retries enabled a
    genuinely-empty port costs ``1 + probe_retries`` probes.  That is
    why the default everywhere is 0 -- exact Figure 8 message counts --
    and only loss-injected runs turn it on.
    """
    if not specs:
        return []
    outcomes = list(transport.probe_round(specs))
    stats.rounds += 1
    for _attempt in range(probe_retries):
        missing = [i for i, o in enumerate(outcomes) if o is None]
        if not missing:
            break
        retry = transport.probe_round([specs[i] for i in missing])
        stats.rounds += 1
        stats.probes_retried += len(missing)
        for i, outcome in zip(missing, retry):
            if outcome is not None:
                outcomes[i] = outcome
    return outcomes


def route_tags(
    topology: Topology, origin: str, switch: str
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(tags to reach ``switch``, tags from it back to ``origin``)."""
    attach = topology.host_port(origin)
    path = topology.shortest_switch_path(attach.switch, switch)
    if path is None:
        raise DiscoveryError(f"{switch!r} unreachable from {origin!r}")
    to_tags: List[int] = []
    from_tags: List[int] = []
    for here, there in zip(path, path[1:]):
        link = topology.links_between(here, there)[0]
        out = link.a if link.a.switch == here else link.b
        back = link.other(out)
        to_tags.append(out.port)
        from_tags.append(back.port)
    from_tags.reverse()
    return tuple(to_tags), tuple(from_tags) + (attach.port,)


# ----------------------------------------------------------------------
# The frontier BFS engine

#: Default bound on probes outstanding in one round.  Large enough that
#: a single switch join (1 + P specs per port, P ports) usually fits in
#: one or two rounds; small enough that a runaway expansion cannot dump
#: an unbounded burst onto the control path.
DEFAULT_PROBE_WINDOW = 512

#: Callback invoked once per confirmed topology element.
ChangeHook = Callable[[TopologyChange], None]


@dataclass
class _PortProbe:
    """One frontier port mid-flight: scan outcomes arrive first, then
    (if bounces survived) a verification round."""

    switch: str
    port: int
    depth: int
    to_tags: Tuple[int, ...]
    from_tags: Tuple[int, ...]
    #: (candidate back-port, claimed switch ID) pairs awaiting
    #: verification, in bounce order.
    candidates: List[Tuple[int, str]] = field(default_factory=list)


class RediscoveryEngine:
    """Frontier-BFS probe planner over a topology view.

    The engine mutates ``view`` directly as elements are confirmed and
    reports each mutation through ``on_change``.  It never talks to a
    transport: call :meth:`next_round` for the next bounded batch of
    specs, deliver their outcomes (``None`` = lost/empty) to
    :meth:`feed` in the same order, repeat until :attr:`done`.
    """

    def __init__(
        self,
        view: Topology,
        origin: str,
        max_ports: int,
        window: int = DEFAULT_PROBE_WINDOW,
        on_change: Optional[ChangeHook] = None,
    ) -> None:
        if max_ports < 1:
            raise ValueError(f"max_ports must be >= 1, got {max_ports}")
        self.view = view
        self.origin = origin
        self.max_ports = max_ports
        # A round must fit at least one full port scan (host probe +
        # max_ports bounces), whatever the caller asked for.
        self.window = max(int(window), max_ports + 1)
        self.on_change = on_change
        self.stats = DiscoveryStats()
        self.changes: List[TopologyChange] = []
        self.switches_added: List[str] = []
        self.links_added: List[Tuple[str, int, str, int]] = []
        self.max_frontier_depth = 0
        #: Ports queued for their scan round, FIFO = breadth-first.
        self._scan_queue: Deque[_PortProbe] = deque()
        #: Ports whose scan produced candidates, queued for verification.
        self._verify_queue: Deque[_PortProbe] = deque()
        #: The in-flight round: (kind, port-probe, extra) per spec, in
        #: spec order.  kind is "host", "bounce" or "verify".
        self._inflight: List[Tuple[str, _PortProbe, int, str]] = []
        #: Probe routes per switch, derived from the parent at
        #: expansion time (new switches) or from the view (seeds).
        self._to_tags: Dict[str, Tuple[int, ...]] = {}
        self._from_tags: Dict[str, Tuple[int, ...]] = {}
        #: Frontier ports ever enqueued, so overlapping seeds (both
        #: ends of one new cable) are scanned at most once.
        self._enqueued: Set[Tuple[str, int]] = set()
        #: Frontiers whose switch has no route from the origin *yet*
        #: (link-downs can cut every route to a switch before a probe
        #: run confirms a replacement).  Retried after each round that
        #: grows the view; whatever is still parked at the end was
        #: genuinely unreachable.
        self._parked: List[Tuple[str, int, int]] = []

    # ------------------------------------------------------------------
    # seeding

    def add_frontier(self, switch: str, port: int, depth: int = 0) -> bool:
        """Queue one dirty port for scanning.  Returns False when the
        port is unknown, already occupied in the view, or already
        queued."""
        if not self.view.has_switch(switch):
            return False
        if not 1 <= port <= self.view.num_ports(switch):
            return False
        if self.view.peer(switch, port) is not None:
            return False
        if (switch, port) in self._enqueued:
            return False
        self._enqueued.add((switch, port))
        routes = self._routes_for(switch)
        if routes is None:
            self._parked.append((switch, port, depth))
            return True
        self._scan_queue.append(
            _PortProbe(switch, port, depth, routes[0], routes[1])
        )
        return True

    def add_switch_frontier(self, switch: str, depth: int = 0) -> int:
        """Queue every open port of ``switch``; returns how many."""
        if not self.view.has_switch(switch):
            return 0
        count = 0
        for port in range(1, self.view.num_ports(switch) + 1):
            if self.add_frontier(switch, port, depth=depth):
                count += 1
        return count

    def _routes_for(self, switch: str) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        cached = self._to_tags.get(switch)
        if cached is not None:
            return cached, self._from_tags[switch]
        try:
            to_tags, from_tags = route_tags(self.view, self.origin, switch)
        except DiscoveryError:
            return None  # no route *yet*; anything else is a caller bug
        self._to_tags[switch] = to_tags
        self._from_tags[switch] = from_tags
        return to_tags, from_tags

    # ------------------------------------------------------------------
    # round planning

    @property
    def done(self) -> bool:
        return not (self._scan_queue or self._verify_queue or self._inflight)

    def next_round(self) -> List[ProbeSpec]:
        """The next bounded batch of probes, or ``[]`` when done.

        Verification probes for already-scanned ports go first (finish
        in-flight work before widening the frontier), then as many
        whole-port scans as fit the window.  The previous round's
        outcomes must have been :meth:`feed`-delivered already.
        """
        if self._inflight:
            raise RuntimeError("previous round's outcomes not fed back yet")
        specs: List[ProbeSpec] = []
        inflight = self._inflight
        while self._verify_queue and len(specs) < self.window:
            probe = self._verify_queue.popleft()
            base = probe.to_tags
            for r, neighbor_id in probe.candidates:
                specs.append(
                    ProbeSpec(
                        tags=base + (probe.port, r, ID_QUERY) + probe.from_tags
                    )
                )
                inflight.append(("verify", probe, r, neighbor_id))
                self.stats.verifications += 1
        while self._scan_queue and len(specs) + self.max_ports + 1 <= self.window:
            probe = self._scan_queue.popleft()
            if self.view.peer(probe.switch, probe.port) is not None:
                continue  # confirmed from the other end meanwhile
            self.max_frontier_depth = max(self.max_frontier_depth, probe.depth)
            specs.append(
                ProbeSpec(
                    tags=probe.to_tags + (probe.port,),
                    reply_tags=probe.from_tags,
                )
            )
            inflight.append(("host", probe, 0, ""))
            for r in range(1, self.max_ports + 1):
                specs.append(
                    ProbeSpec(
                        tags=probe.to_tags + (probe.port, ID_QUERY, r)
                        + probe.from_tags
                    )
                )
                inflight.append(("bounce", probe, r, ""))
        return specs

    # ------------------------------------------------------------------
    # outcome consumption

    def feed(self, outcomes: Sequence[Optional[ProbeOutcome]]) -> List[TopologyChange]:
        """Deliver one round's outcomes (same order as its specs).
        Returns the topology changes this round confirmed."""
        inflight = self._inflight
        if len(outcomes) != len(inflight):
            raise ValueError(
                f"round had {len(inflight)} specs, got {len(outcomes)} outcomes"
            )
        self._inflight = []
        before = len(self.changes)
        # Group back by port so a port's host reply beats its bounces.
        hosts_at: Dict[Tuple[str, int], ProbeOutcome] = {}
        bounces_at: Dict[Tuple[str, int], _PortProbe] = {}
        #: Per port, every candidate whose verification came home.
        verified: Dict[Tuple[str, int], Tuple[_PortProbe, List[Tuple[int, str]]]] = {}
        for (kind, probe, r, claimed), outcome in zip(inflight, outcomes):
            key = (probe.switch, probe.port)
            if outcome is None:
                continue
            if kind == "host" and outcome.kind == "host":
                hosts_at[key] = outcome
            elif kind == "bounce" and outcome.kind == "id" and outcome.switch_id:
                probe.candidates.append((r, outcome.switch_id))
                bounces_at[key] = probe
            elif (
                kind == "verify"
                and outcome.kind == "id"
                and outcome.switch_id == probe.switch
            ):
                verified.setdefault(key, (probe, []))[1].append((r, claimed))

        for (switch, port), outcome in hosts_at.items():
            self._confirm_host(switch, port, outcome)
        for probe, candidates in verified.values():
            self._confirm_link(probe, candidates)
        for key, probe in bounces_at.items():
            if key in hosts_at or key in verified:
                continue
            if self.view.peer(probe.switch, probe.port) is not None:
                continue
            if len(probe.candidates) > 1:
                self.stats.ambiguities_resolved += 1
            # Drop candidates whose claimed far port is visibly taken.
            probe.candidates = [
                (r, neighbor)
                for r, neighbor in probe.candidates
                if not (
                    self.view.has_switch(neighbor)
                    and self.view.peer(neighbor, r) is not None
                )
            ]
            if probe.candidates:
                self._verify_queue.append(probe)
        confirmed = self.changes[before:]
        if confirmed and self._parked:
            self._retry_parked()
        return confirmed

    def _retry_parked(self) -> None:
        """Reattempt frontiers whose switch had no route when seeded."""
        still_parked: List[Tuple[str, int, int]] = []
        for switch, port, depth in self._parked:
            if self.view.peer(switch, port) is not None:
                continue  # confirmed from the other end meanwhile
            routes = self._routes_for(switch)
            if routes is None:
                still_parked.append((switch, port, depth))
            else:
                self._scan_queue.append(
                    _PortProbe(switch, port, depth, routes[0], routes[1])
                )
        self._parked = still_parked

    # ------------------------------------------------------------------
    # view mutation + delta log

    def _emit(self, change: TopologyChange) -> None:
        self.changes.append(change)
        if self.on_change is not None:
            self.on_change(change)

    def _confirm_host(self, switch: str, port: int, outcome: ProbeOutcome) -> None:
        host = outcome.host
        assert host is not None
        if self.view.has_host(host) or self.view.peer(switch, port) is not None:
            return
        self.view.add_host(host, switch, port)
        self._emit(TopologyChange(op="host-up", args=(host, switch, port)))

    def _confirm_link(
        self, probe: _PortProbe, verified: List[Tuple[int, str]]
    ) -> None:
        """Wire ``probe``'s port to the first verified candidate whose
        far port is still free.  Parallel cables verify every port of
        their bundle, and a sibling port confirmed earlier in the same
        round may already hold the first one."""
        switch, port = probe.switch, probe.port
        for r, neighbor in verified:
            if not (
                self.view.has_switch(neighbor)
                and self.view.peer(neighbor, r) is not None
            ):
                break
        else:
            return
        if not self.view.has_switch(neighbor):
            self.view.add_switch(neighbor, self.max_ports)
            self.switches_added.append(neighbor)
            # Route through the just-confirmed cable: cheaper than a
            # shortest-path run, and the parent's route plus one hop.
            self._to_tags[neighbor] = probe.to_tags + (port,)
            self._from_tags[neighbor] = (r,) + probe.from_tags
            self._emit(
                TopologyChange(op="switch-up", args=(neighbor, self.max_ports))
            )
        if (
            self.view.peer(switch, port) is not None
            or self.view.peer(neighbor, r) is not None
        ):
            return
        self.view.add_link(switch, port, neighbor, r)
        self.links_added.append((switch, port, neighbor, r))
        self._emit(TopologyChange(op="link-up", args=(switch, port, neighbor, r)))
        if neighbor in self.switches_added:
            # Recurse: every other open port of the newcomer is frontier,
            # one switch hop deeper than the port that found it.
            self.add_switch_frontier(neighbor, depth=probe.depth + 1)

# ----------------------------------------------------------------------
# Blocking driver: bootstrap


@dataclass
class DiscoveryResult:
    view: Topology
    origin: str
    origin_attachment: Tuple[str, int]
    stats: DiscoveryStats

    @property
    def switches_found(self) -> int:
        return len(self.view.switches)

    @property
    def hosts_found(self) -> int:
        return len(self.view.hosts)


def discover(
    transport: ProbeTransport, origin: str, probe_retries: int = 0
) -> DiscoveryResult:
    """Map the network reachable from ``origin``: the frontier BFS
    seeded with every port of the origin's own switch.

    ``probe_retries`` > 0 re-sends probes whose outcome was lost, which
    keeps discovery correct on a lossy fabric at the price of inflated
    probe counts (empty ports never answer, retried or not).
    """
    stats = DiscoveryStats()
    max_ports = transport.max_ports

    # Phase 0: find our own port and the root switch ID by sending
    # 0-1-ø, 0-2-ø, ... and seeing which ID reply bounces back.  This is
    # the one step an empty view allows; the rest is frontier expansion.
    own_port = None
    root = None
    specs = [ProbeSpec(tags=(ID_QUERY, p)) for p in range(1, max_ports + 1)]
    outcomes = _retrying_round(transport, stats, specs, probe_retries)
    for p, outcome in zip(range(1, max_ports + 1), outcomes):
        if outcome is not None and outcome.kind == "id":
            own_port, root = p, outcome.switch_id
            break
    if own_port is None or root is None:
        raise DiscoveryError(f"host {origin!r} could not reach its switch")

    view = Topology()
    view.add_switch(root, max_ports)
    view.add_host(origin, root, own_port)
    engine = RediscoveryEngine(view=view, origin=origin, max_ports=max_ports)
    engine.stats = stats  # phase 0's round belongs to the same run
    engine.add_switch_frontier(root)
    while True:
        specs = engine.next_round()
        if not specs:
            break
        engine.feed(_retrying_round(transport, stats, specs, probe_retries))

    stats.probes_sent = transport.probes_sent
    stats.replies_received = transport.replies_received
    stats.elapsed_s = transport.elapsed()
    return DiscoveryResult(
        view=view,
        origin=origin,
        origin_attachment=(root, own_port),
        stats=stats,
    )


# ----------------------------------------------------------------------
# Event-loop driver (the controller's probe runs)


class AsyncProbeDriver:
    """Pipeline an engine's rounds over a live agent's probe interface.

    Each round sends up to one window of probes back-to-back through
    ``agent.send_probe`` and collects them after ``settle_s`` of
    simulated time -- the asynchronous analogue of
    :func:`_retrying_round`'s batch-and-wait, so a multi-switch join
    costs a few settle windows, not one blocking drain of the whole
    event loop.  ``on_round`` fires after every round that confirmed
    something (the controller floods patches there); ``on_done`` fires
    once, when the frontier is exhausted.
    """

    def __init__(
        self,
        agent,
        engine: RediscoveryEngine,
        settle_s: float,
        on_round: Optional[Callable[[List[TopologyChange]], None]] = None,
        on_done: Optional[Callable[["AsyncProbeDriver"], None]] = None,
    ) -> None:
        self.agent = agent
        self.engine = engine
        self.settle_s = settle_s
        self.on_round = on_round
        self.on_done = on_done
        self.started_at = agent.loop.now
        self._nonces: List[int] = []

    def start(self) -> None:
        self._kick()

    def _kick(self) -> None:
        specs = self.engine.next_round()
        if not specs:
            if self.on_done is not None:
                self.on_done(self)
            return
        self._nonces = [self.agent.send_probe(spec) for spec in specs]
        self.engine.stats.probes_sent += len(specs)
        self.engine.stats.rounds += 1
        self.agent.loop.schedule(self.settle_s, self._collect)

    def _collect(self) -> None:
        outcomes = [self.agent.collect_probe(nonce) for nonce in self._nonces]
        self._nonces = []
        self.engine.stats.replies_received += sum(
            1 for o in outcomes if o is not None
        )
        confirmed = self.engine.feed(outcomes)
        if confirmed and self.on_round is not None:
            self.on_round(confirmed)
        self._kick()


# ----------------------------------------------------------------------
# Bootstrap-by-verification (Section 4.1: with prior knowledge, hosts
# "quickly verify (instead of discover) all links")


@dataclass
class VerificationReport:
    confirmed_links: int
    confirmed_hosts: int
    missing_links: List[Tuple[str, int, str, int]]
    missing_hosts: List[str]
    stats: DiscoveryStats

    @property
    def clean(self) -> bool:
        return not self.missing_links and not self.missing_hosts


def verify_expected_topology(
    transport: ProbeTransport,
    origin: str,
    expected: Topology,
    probe_retries: int = 0,
) -> VerificationReport:
    """Fast bootstrap: probe only the links/hosts the blueprint expects.

    O(links + hosts) probes instead of O(N * P^2): the prior-knowledge
    optimization Section 4.1 describes.  Each link is bounced in *both*
    directions (a->b expecting b's ID, b->a expecting a's): a single
    forward bounce confirms only that ``a.port`` leads to ``b.switch``,
    so a mis-wire where ``b.port`` is actually cabled to some other
    switch that happens to route the probe home would verify clean.
    Mis-wired elements come back in the ``missing_*`` lists.
    """
    stats = DiscoveryStats()
    specs: List[ProbeSpec] = []
    what: List[Tuple[str, object]] = []
    for link in expected.links:
        to_a, from_a = route_tags(expected, origin, link.a.switch)
        to_b, from_b = route_tags(expected, origin, link.b.switch)
        specs.append(
            ProbeSpec(tags=to_a + (link.a.port, ID_QUERY, link.b.port) + from_a)
        )
        what.append(("link-fwd", link))
        specs.append(
            ProbeSpec(tags=to_b + (link.b.port, ID_QUERY, link.a.port) + from_b)
        )
        what.append(("link-rev", link))
    for host in expected.hosts:
        if host == origin:
            continue
        ref = expected.host_port(host)
        to_s, from_s = route_tags(expected, origin, ref.switch)
        specs.append(ProbeSpec(tags=to_s + (ref.port,), reply_tags=from_s))
        what.append(("host", host))

    outcomes = _retrying_round(transport, stats, specs, probe_retries)
    confirmed_links = 0
    confirmed_hosts = 0
    missing_links: List[Tuple[str, int, str, int]] = []
    missing_hosts: List[str] = []
    direction_ok: Dict[object, Dict[str, bool]] = {}
    for (kind, item), outcome in zip(what, outcomes):
        if kind in ("link-fwd", "link-rev"):
            link = item
            expect = link.b.switch if kind == "link-fwd" else link.a.switch  # type: ignore[union-attr]
            ok = (
                outcome is not None
                and outcome.kind == "id"
                and outcome.switch_id == expect
            )
            direction_ok.setdefault(link.key(), {})[kind] = ok  # type: ignore[union-attr]
        else:
            ok = outcome is not None and outcome.kind == "host" and outcome.host == item
            if ok:
                confirmed_hosts += 1
            else:
                missing_hosts.append(item)  # type: ignore[arg-type]
    for link in expected.links:
        results = direction_ok.get(link.key(), {})
        if results.get("link-fwd") and results.get("link-rev"):
            confirmed_links += 1
        else:
            missing_links.append(
                (link.a.switch, link.a.port, link.b.switch, link.b.port)
            )
    stats.probes_sent = transport.probes_sent
    stats.replies_received = transport.replies_received
    stats.elapsed_s = transport.elapsed()
    return VerificationReport(
        confirmed_links=confirmed_links,
        confirmed_hosts=confirmed_hosts,
        missing_links=missing_links,
        missing_hosts=missing_hosts,
        stats=stats,
    )
