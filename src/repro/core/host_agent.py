"""The DumbNet host agent (Section 5.2).

Everything the paper's kernel module + service daemons do lives here:

* **dataplane**: push the tag route into outgoing frames, strip/validate
  the ø marker on incoming frames, hand payloads to the application;
* **path cache service**: the TopoCache / PathTable pair, fed by
  controller path-graph replies;
* **probing**: send probing messages and match bounces/replies, both for
  the discovery service and for the agent's own bootstrap;
* **failure handling, host side** (Section 4.2): act on switch
  notifications immediately, flood the news to gossip neighbors, absorb
  the controller's stage-2 topology patch;
* **extension interface** (Section 6.1): a pluggable routing function
  chooses among cached paths per packet/flow, and a path verifier vets
  application-supplied routes before they enter the PathTable.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..netsim.device import Device
from ..netsim.events import EventLoop
from ..netsim.network import HOST_NIC_PORT, Network
from ..topology.graph import SwitchIndex, TopologyError
from .discovery import ProbeOutcome, ProbeSpec, ProbeTransport
from .messages import (
    Ack,
    AppData,
    ControllerAnnounce,
    FailureGossip,
    PathReply,
    PathRequest,
    PortStateNotification,
    ProbeMessage,
    ProbeReply,
    SwitchIDReply,
    TopologyPatch,
    next_nonce,
)
from .packet import ETHERTYPE_DUMBNET, ETHERTYPE_NOTIFY, Packet, PathTags
from .pathcache import FRAGMENT_PORTS, CachedPath, PathTable, TopoCache
from .pathgraph import primary_and_backup

__all__ = [
    "HostAgent",
    "EmulatedProbeTransport",
    "RoutingFunction",
]

#: A routing function maps (agent, dst, flow_key) to a cached path, or
#: None to fall back to the default PathTable behaviour (Section 6.1,
#: Figure 6: applications may install customized G: pkt -> tags).
RoutingFunction = Callable[["HostAgent", str, object], Optional[CachedPath]]

#: How many shortest paths the agent installs per destination.
K_PATHS = 4
#: Host software per-frame processing delay (DPDK-class stack).
HOST_PROC_DELAY_S = 5e-6
#: Controller query retry timer and budget.  Retries back off
#: exponentially (timeout * backoff^tries, capped) with a small
#: random jitter so a lossy control path is not hammered in
#: lockstep by every waiting host.
REQUEST_TIMEOUT_S = 0.05
MAX_REQUEST_RETRIES = 5
REQUEST_BACKOFF = 2.0
REQUEST_TIMEOUT_CAP_S = 0.8
REQUEST_JITTER_FRAC = 0.1
#: Default payload size for application sends, bytes.
DEFAULT_PAYLOAD_BYTES = 1000


class HostAgent(Device):
    """A host NIC + DumbNet agent attached to the emulated fabric."""

    def __init__(
        self,
        name: str,
        loop: EventLoop,
        tracer=None,
        rng: Optional[random.Random] = None,
        proc_delay_s: float = HOST_PROC_DELAY_S,
        index: Optional[SwitchIndex] = None,
    ) -> None:
        """``proc_delay_s`` is the per-frame service time; only the
        controller, whose Figure 10 service time is calibrated, sets it.
        ``index`` is the fabric's switch index, shared by every host's
        TopoCache fragment (a fresh one when None)."""
        super().__init__(name, loop, proc_delay=proc_delay_s)
        self.tracer = tracer
        # A string seed is digested the same way in every process.
        self.rng = rng or random.Random(f"host-agent:{name}")

        # Identity learned at bootstrap.
        self.attachment: Optional[Tuple[str, int]] = None
        self.controller: Optional[str] = None
        self.tags_to_controller: Optional[Tuple[int, ...]] = None

        # The two-level path cache (Section 5.2).
        self.topo_cache = TopoCache(name, index)
        self.path_table = PathTable(rng=self.rng)

        # Extension hooks (Section 6.1).
        self.routing_function: Optional[RoutingFunction] = None
        self.path_verifier: Optional[Callable[[CachedPath], bool]] = None

        # Failure-handling state (Section 4.2, host side).
        self.gossip_neighbors: Dict[str, Tuple[int, ...]] = {}
        self._seen_news: Set[Tuple[str, int, bool, int]] = set()
        self._seen_patches: Set[Tuple[str, int]] = set()

        # Probing state.
        self._outstanding_probes: Dict[int, ProbeSpec] = {}
        self._probe_outcomes: Dict[int, ProbeOutcome] = {}

        # Pending application sends waiting for a path.
        self._pending_sends: Dict[str, List[Tuple[Any, int, object]]] = {}
        self._path_requests: Dict[str, Tuple[int, int]] = {}  # dst -> (nonce, tries)

        # Observability hub (set by DumbNetFabric(obs=True)); None costs one
        # check at the few gated call sites, like the tracer gates.
        self.obs = None
        self._obs_query_t0: Dict[str, float] = {}

        # Application delivery: ``app_receive`` gets each payload once; the
        # default logs it, an installed receiver passes on what it skips.
        self.delivered: List[Tuple[float, str, Any]] = []
        self.app_receive: Callable[[str, Any, float], None] = self._log_delivery

        # Statistics.
        self.app_sent = 0
        self.app_delivered = 0
        self.dropped_invalid = 0
        self.news_received = 0
        self.gossip_sent = 0
        self.path_queries_sent = 0
        self.path_queries_abandoned = 0

    # ------------------------------------------------------------------
    # low-level send helpers

    def nic_send(self, packet: Packet) -> bool:
        return self.send(HOST_NIC_PORT, packet)

    def send_tagged(
        self,
        tags: Sequence[int],
        payload: Any,
        payload_bytes: int = 0,
        dst: str = "",
    ) -> bool:
        packet = Packet(
            src=self.name,
            dst=dst,
            ethertype=ETHERTYPE_DUMBNET,
            tags=PathTags(tags),
            payload=payload,
            payload_bytes=payload_bytes or getattr(payload, "wire_size", 0),
        )
        if not tags:
            # A zero-hop route addresses this very host (the controller
            # talks to its own agent this way).  Loop it back through
            # the normal receive path, asynchronously.
            self.loop.schedule(0.0, self.handle_packet, HOST_NIC_PORT, packet)
            return True
        return self.nic_send(packet)

    # ------------------------------------------------------------------
    # application interface

    def send_app(
        self,
        dst: str,
        data: Any,
        payload_bytes: Optional[int] = None,
        flow_key: object = None,
    ) -> bool:
        """Send application data to another host.

        Returns True when a cached path existed and the frame left
        immediately; False when the send was queued behind a controller
        path query (the Figure 10 long-tail case).
        """
        size = payload_bytes if payload_bytes is not None else DEFAULT_PAYLOAD_BYTES
        self.app_sent += 1
        path = self._route(dst, flow_key)
        if path is not None:
            self.send_tagged(path.tags, AppData(data), size, dst=dst)
            return True
        self._pending_sends.setdefault(dst, []).append((data, size, flow_key))
        self._request_path(dst)
        return False

    def _route(self, dst: str, flow_key: object) -> Optional[CachedPath]:
        if self.routing_function is not None:
            path = self.routing_function(self, dst, flow_key)
            if path is not None:
                if self.path_verifier is not None and not self.path_verifier(path):
                    self.dropped_invalid += 1
                    return None
                return path
        return self.path_table.lookup(dst, flow_key)

    # ------------------------------------------------------------------
    # controller path queries (TopoCache miss handling)

    def _request_path(self, dst: str) -> None:
        if dst in self._path_requests:
            return  # a query is already in flight
        if self.controller is None or self.tags_to_controller is None:
            return  # bootstrap not finished; pending sends flush on announce
        nonce = next_nonce()
        self._path_requests[dst] = (nonce, 0)
        if self.obs is not None:
            self._obs_query_t0[dst] = self.loop.now
        self._send_path_request(dst, nonce)

    def _request_timeout(self, tries: int) -> float:
        """Exponential backoff with jitter for retry ``tries``."""
        timeout = min(
            REQUEST_TIMEOUT_S * (REQUEST_BACKOFF ** tries), REQUEST_TIMEOUT_CAP_S
        )
        return timeout * (1.0 + REQUEST_JITTER_FRAC * self.rng.random())

    def _send_path_request(self, dst: str, nonce: int, tries: int = 0) -> None:
        request = PathRequest(nonce=nonce, src=self.name, dst=dst, reply_tags=())
        assert self.tags_to_controller is not None
        self.send_tagged(self.tags_to_controller, request, dst=self.controller or "")
        self.path_queries_sent += 1
        self.loop.schedule(
            self._request_timeout(tries), self._maybe_retry_request, dst, nonce
        )

    def _maybe_retry_request(self, dst: str, nonce: int) -> None:
        state = self._path_requests.get(dst)
        if state is None or state[0] != nonce:
            return  # answered (or superseded) in the meantime
        _nonce, tries = state
        if tries + 1 >= MAX_REQUEST_RETRIES:
            # Degrade instead of hanging: abandon the query and the
            # sends queued behind it; a later send_app starts afresh.
            del self._path_requests[dst]
            self._pending_sends.pop(dst, None)
            self._obs_query_t0.pop(dst, None)
            self.path_queries_abandoned += 1
            return
        new_nonce = next_nonce()
        self._path_requests[dst] = (new_nonce, tries + 1)
        self._send_path_request(dst, new_nonce, tries=tries + 1)

    # ------------------------------------------------------------------
    # probing interface (used by EmulatedProbeTransport and reprobes)

    def send_probe(self, spec: ProbeSpec) -> int:
        """Send one probing message now; returns its nonce."""
        args = self._arm_probe(spec)
        self.send_tagged(*args)
        return args[1].nonce

    def _arm_probe(self, spec: ProbeSpec) -> Tuple[Tuple[int, ...], ProbeMessage]:
        """Register a probe as outstanding; returns ``send_tagged``'s args."""
        nonce = next_nonce()
        self._outstanding_probes[nonce] = spec
        return spec.tags, ProbeMessage(nonce=nonce, origin=self.name, reply_tags=spec.reply_tags)

    def collect_probe(self, nonce: int) -> Optional[ProbeOutcome]:
        self._outstanding_probes.pop(nonce, None)
        return self._probe_outcomes.pop(nonce, None)

    # ------------------------------------------------------------------
    # receive path

    def handle_packet(self, port: int, packet: Packet) -> None:
        if packet.ethertype == ETHERTYPE_NOTIFY:
            if isinstance(packet.payload, PortStateNotification):
                self._on_news(packet.payload)
            return
        tags = packet.tags
        if packet.ethertype != ETHERTYPE_DUMBNET or tags is None:
            self.dropped_invalid += 1
            return
        if tags._cursor < len(tags._tags):
            # Section 5.1: anything that still carries hop tags at a host
            # is malformed; the agent drops it.  (Inlined tags.at_end --
            # this check runs once per delivered frame.)
            self.dropped_invalid += 1
            return
        self._dispatch(packet)

    def _dispatch(self, packet: Packet) -> None:
        payload = packet.payload
        if isinstance(payload, SwitchIDReply):
            self._on_id_reply(payload)
        elif isinstance(payload, ProbeMessage):
            self._on_probe(payload)
        elif isinstance(payload, ProbeReply):
            self._on_probe_reply(payload)
        elif isinstance(payload, FailureGossip):
            self._on_news(payload.notification)
        elif isinstance(payload, TopologyPatch):
            self._on_patch(payload)
        elif isinstance(payload, ControllerAnnounce):
            self._on_announce(payload)
        elif isinstance(payload, PathReply):
            self._on_path_reply(payload)
        elif isinstance(payload, PathRequest):
            self.handle_path_request(payload)
        elif isinstance(payload, AppData):
            self.app_delivered += 1
            self.app_receive(packet.src, payload.data, self.loop.now)
        elif isinstance(payload, Ack):
            pass
        else:
            self.dropped_invalid += 1

    def _log_delivery(self, src: str, payload: Any, now: float) -> None:
        self.delivered.append((now, src, payload))

    # ------------------------------------------------------------------
    # probe handling

    def _on_id_reply(self, reply: SwitchIDReply) -> None:
        echo = reply.echo
        if isinstance(echo, ProbeMessage) and echo.nonce in self._outstanding_probes:
            self._probe_outcomes[echo.nonce] = ProbeOutcome(
                kind="id",
                switch_id=reply.switch_id,
                stats=getattr(reply, "counters", None),
            )

    def _on_probe(self, probe: ProbeMessage) -> None:
        if probe.origin == self.name:
            if probe.nonce in self._outstanding_probes:
                self._probe_outcomes[probe.nonce] = ProbeOutcome(kind="bounce")
            return
        if not probe.reply_tags:
            return
        reply = ProbeReply(nonce=probe.nonce, host=self.name)
        self.send_tagged(probe.reply_tags, reply, dst=probe.origin)

    def _on_probe_reply(self, reply: ProbeReply) -> None:
        if reply.nonce in self._outstanding_probes:
            self._probe_outcomes[reply.nonce] = ProbeOutcome(kind="host", host=reply.host)

    # ------------------------------------------------------------------
    # failure handling, host side (Section 4.2)

    def _on_news(self, note: PortStateNotification) -> None:
        key = (note.switch, note.port, note.up, note.seq)
        if key in self._seen_news:
            return
        self._seen_news.add(key)
        self.news_received += 1
        if self.tracer is not None:
            self.tracer.record(self.loop.now, "news-received", self.name, note)
        self._apply_news(note)
        # Flood onward before anything else: other hosts should not have
        # to wait for our local bookkeeping (stage 1 is controller-free).
        # Each gossip edge carries two disjoint routes -- the failure
        # being reported may sit on one of them.
        gossip = FailureGossip(notification=note, relayed_by=self.name)
        for neighbor, routes in self.gossip_neighbors.items():
            if neighbor == self.name:
                continue
            for tags in routes:
                self.send_tagged(tags, gossip, dst=neighbor)
            self.gossip_sent += 1
        self.on_news(note)

    def _apply_news(self, note: PortStateNotification) -> None:
        if note.up:
            self.topo_cache.port_up(note.switch, note.port)
            return
        # Invalidate both directions of the affected cable: the cache
        # fragment knows the far end if we ever cached a path over it.
        peer = None
        if self.topo_cache.fragment.has_switch(note.switch):
            maybe = self.topo_cache.fragment.peer(note.switch, note.port)
            if maybe is not None and hasattr(maybe, "switch"):
                peer = (maybe.switch, maybe.port)
        self.topo_cache.port_down(note.switch, note.port)
        self.path_table.invalidate_port(note.switch, note.port)
        if peer is not None:
            self.path_table.invalidate_port(peer[0], peer[1])

    def on_news(self, note: PortStateNotification) -> None:
        """Subclass hook: the controller reacts here (stage 2)."""

    # ------------------------------------------------------------------
    # stage-2 patches

    def _on_patch(self, patch: TopologyPatch) -> None:
        key = (patch.origin, patch.version)
        if key in self._seen_patches:
            return
        self._seen_patches.add(key)
        if self.tracer is not None:
            self.tracer.record(self.loop.now, "patch-received", self.name, patch)
        for change in patch.changes:
            if change.op == "link-down":
                sw_a, port_a, sw_b, port_b = change.args
                self.topo_cache.port_down(sw_a, port_a)
                self.topo_cache.port_down(sw_b, port_b)
                self.path_table.invalidate_port(sw_a, port_a)
                self.path_table.invalidate_port(sw_b, port_b)
            elif change.op == "link-up":
                sw_a, port_a, sw_b, port_b = change.args
                self.topo_cache.port_up(sw_a, port_a)
                self.topo_cache.port_up(sw_b, port_b)
                fragment = self.topo_cache.fragment
                if fragment.has_switch(sw_a) and fragment.has_switch(sw_b):
                    fragment.merge_links([(sw_a, port_a, sw_b, port_b)], FRAGMENT_PORTS)
            elif change.op == "switch-up":
                switch, num_ports = change.args
                if not self.topo_cache.fragment.has_switch(switch):
                    self.topo_cache.fragment.add_switch(switch, num_ports)
            elif change.op == "switch-down":
                (switch,) = change.args
                if self.topo_cache.fragment.has_switch(switch):
                    for link in list(self.topo_cache.fragment.links_of(switch)):
                        self.path_table.invalidate_port(link.a.switch, link.a.port)
                        self.path_table.invalidate_port(link.b.switch, link.b.port)
                    self.topo_cache.fragment.remove_switch(switch)
        self.topo_cache.version = max(self.topo_cache.version, patch.version)
        # Relay the patch along the gossip overlay so it reaches hosts
        # the controller has no direct route to after the failure.
        for neighbor, routes in self.gossip_neighbors.items():
            for tags in routes:
                self.send_tagged(tags, patch, dst=neighbor)
        self._refresh_cached_paths()

    def _refresh_cached_paths(self) -> None:
        """Recompute PathTable entries from the patched TopoCache."""
        for dst in self.path_table.destinations():
            self._install_paths(dst, only_if_degraded=True)

    # ------------------------------------------------------------------
    # bootstrap messages

    def _on_announce(self, announce: ControllerAnnounce) -> None:
        self.controller = announce.controller
        self.tags_to_controller = announce.tags_to_controller
        self.attachment = announce.your_attachment
        self.gossip_neighbors = dict(announce.gossip_neighbors)
        self.topo_cache.record_attachment(
            self.name, announce.your_attachment[0], announce.your_attachment[1]
        )
        if self.tracer is not None:
            self.tracer.record(self.loop.now, "announced", self.name, announce.controller)
        for dst in list(self._pending_sends):
            self._request_path(dst)

    def _on_path_reply(self, reply: PathReply) -> None:
        state = self._path_requests.pop(reply.dst, None)
        if state is None:
            return
        if self.obs is not None:
            t0 = self._obs_query_t0.pop(reply.dst, None)
            if t0 is not None:
                # Simulated round-trip of the controller path query,
                # retries included (Figure 10's long-tail component).
                self.obs.query_latency.observe(self.loop.now - t0)
        if not reply.found:
            self._pending_sends.pop(reply.dst, None)
            return
        self.topo_cache.merge_reply(reply)
        self._install_paths(reply.dst)
        self._flush_pending(reply.dst)

    def _install_paths(self, dst: str, only_if_degraded: bool = False) -> None:
        """Compute and install PathTable entries from the TopoCache."""
        if only_if_degraded:
            entry = self.path_table.entry(dst)
            if entry is not None and len(entry.primaries) >= K_PATHS:
                return
        att_src = self.topo_cache.attachment(self.name)
        att_dst = self.topo_cache.attachment(dst)
        if att_src is None or att_dst is None:
            return
        fragment = self.topo_cache.fragment
        src_sw, dst_sw = att_src[0], att_dst[0]
        # One walk-back tree serves Yen's first path and the primary.
        tree = fragment.sssp_tree(src_sw, stop=dst_sw)
        switch_paths = fragment.k_shortest_switch_paths(src_sw, dst_sw, K_PATHS, tree)
        primaries = []
        for switches in switch_paths:
            try:
                primaries.append(self.topo_cache.encode(self.name, switches, dst))
            except TopologyError:
                continue
        backup = None
        _primary, backup_switches = primary_and_backup(fragment, src_sw, dst_sw, self.rng, tree)
        if backup_switches is not None:
            try:
                backup = self.topo_cache.encode(self.name, backup_switches, dst)
            except TopologyError:
                backup = None
        if primaries or backup:
            if self.obs is not None:
                for path in primaries:
                    self.obs.path_tags.observe(len(path.tags))
            self.path_table.install(dst, primaries, backup)

    def _flush_pending(self, dst: str) -> None:
        for data, size, flow_key in self._pending_sends.pop(dst, []):
            path = self._route(dst, flow_key)
            if path is not None:
                self.send_tagged(path.tags, AppData(data), size, dst=dst)

    # ------------------------------------------------------------------
    # controller-side hook (overridden by Controller)

    def handle_path_request(self, request: PathRequest) -> None:
        """Plain hosts ignore path requests."""


class EmulatedProbeTransport(ProbeTransport):
    """Drive discovery probes through the real emulator.

    Each :meth:`probe_round` injects the probes as packets from the
    agent and runs the event loop until the fabric is quiet, which is
    exactly the paper's emulation methodology (one controller, probes
    in parallel, discovery time = controller wall clock).
    """

    def __init__(self, agent: HostAgent, network: Network) -> None:
        self.agent = agent
        self.network = network
        self.max_ports = max(
            (network.topology.num_ports(sw) for sw in network.topology.switches),
            default=0,
        )
        self._sent = 0
        self._received = 0

    @property
    def probes_sent(self) -> int:
        return self._sent

    @property
    def replies_received(self) -> int:
        return self._received

    def elapsed(self) -> float:
        return self.network.now

    def probe_round(self, specs: Sequence[ProbeSpec]) -> List[Optional[ProbeOutcome]]:
        # Probes leave back-to-back at the agent's processing rate: the
        # wire is parallel but the prober's CPU is not (Section 7.2.1; it
        # is what makes discovery time track probe count in Figure 8).
        # Probe 0 goes out now, the rest as one timer batch.
        agent, spacing = self.agent, self.agent.proc_delay
        nonces = [agent.send_probe(specs[0])] if specs else []

        def later(i: int, spec: ProbeSpec):
            args = agent._arm_probe(spec)
            nonces.append(args[1].nonce)
            return i * spacing, agent.send_tagged, args

        agent.loop.call_batch([later(i, spec) for i, spec in islice(enumerate(specs), 1, None)])
        self._sent += len(specs)
        self.network.run_until_idle()
        outcomes = [self.agent.collect_probe(nonce) for nonce in nonces]
        self._received += sum(1 for o in outcomes if o is not None)
        return outcomes
