"""The DumbNet controller (Sections 3.1, 4).

The controller is an ordinary host that additionally:

* runs the discovery service and owns the authoritative topology view;
* announces itself to every host after bootstrap (hosts "probe until
  they learn the location of the controller" in the paper; announcing
  is the same handshake initiated from the other side and costs one
  message per host);
* answers path queries with path graphs (Section 4.3);
* implements failure-handling stage 2: absorb failure news from the
  host flood, patch the master view, and flood a topology patch;
* re-probes ports when links come back up, discovering new hardware;
* replicates every view change to its replicas through a quorum log
  (the paper uses ZooKeeper; :mod:`repro.consensus` plays that role).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Set, Tuple

from ..netsim.events import EventLoop
from ..netsim.network import Network
from ..topology.graph import PortRef, Topology
from .discovery import AsyncProbeDriver, DiscoveryResult, RediscoveryEngine, discover
from .host_agent import HOST_PROC_DELAY_S, EmulatedProbeTransport, HostAgent
from .messages import (
    ControllerAnnounce,
    PathReply,
    PathRequest,
    PortStateNotification,
    TopologyChange,
    TopologyPatch,
)
from .pathgraph import backup_path
from .pathservice import PathService

__all__ = ["Controller", "ControllerConfig"]

#: How long one round of a probe run waits for its replies, seconds.
REPROBE_SETTLE_S = 0.02

#: Outstanding-probe window of a probe run: one that meets an unknown
#: switch sends at most this many probes per settle period (clamped up
#: so one full port scan always fits).
PROBE_RUN_WINDOW = 128

#: Per-host gossip neighbours, each with its tag routes.
Overlay = Dict[str, Tuple[Tuple[str, Tuple[Tuple[int, ...], ...]], ...]]

#: Path-graph parameters of every path-query reply (Section 4.3).
PATH_GRAPH_S = 2
PATH_GRAPH_EPSILON = 1
#: Per-host cap on gossip fan-out (same-switch hosts come first).
GOSSIP_FANOUT = 8
#: Stage-2 processing delay before the patch flood starts: the paper
#: measures patches arriving a few ms after the failure news.
PATCH_DELAY_S = 1e-3
#: Hosts unreachable in the current view at announce time are
#: retried this often until the view heals (reprobes landing, a
#: deferred flap alarm arriving).
ANNOUNCE_RETRIES = 8
ANNOUNCE_RETRY_S = 0.25
#: A probe run that leaves its port unknown (every probe lost, no
#: route to the port yet) is retried this many times with
#: exponential backoff before the port is given up on.
REPROBE_RETRIES = 2
#: Bound on the path service's path-graph LRU cache (entries).
PATH_CACHE_CAPACITY = 512


@dataclass
class ControllerConfig:
    """The controller's settable values."""

    #: Per-frame processing delay of the controller host; Figure 10
    #: calibrates it as the path-query service time.
    proc_delay_s: float = HOST_PROC_DELAY_S
    #: Disjoint routes per gossip edge.  2 keeps the flood connected
    #: under any single link failure (the failure being reported may sit
    #: on a gossip route); 1 is the naive ablation.
    gossip_route_redundancy: int = 2


class Controller(HostAgent):
    """A host agent that also runs the control plane."""

    def __init__(
        self,
        name: str,
        loop: EventLoop,
        tracer=None,
        config: Optional[ControllerConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.config = config or ControllerConfig()
        super().__init__(
            name, loop, tracer=tracer, rng=rng, proc_delay_s=self.config.proc_delay_s
        )
        #: The authoritative network view.
        self.view: Optional[Topology] = None
        self.view_version = 0
        #: Shared SSSP trees + path-graph cache; its stable tie-breaker
        #: seed derives from the fabric seed so runs stay reproducible.
        self.path_service = PathService(
            capacity=PATH_CACHE_CAPACITY,
            seed=self.rng.randrange(2**63),
        )
        #: Optional replication hook: an object with append(entry).
        self.replicator = None
        #: In-flight probe runs by the dirty port that seeded them; the
        #: value is set when fresh link-up news for the port lands
        #: mid-run (one fresh run follows).
        self._probe_runs: Dict[Tuple[str, int], bool] = {}
        #: Bumped by every announce_all so a stale retry chain from an
        #: earlier announcement round cannot race a newer one.
        self._announce_epoch = 0
        # Statistics.  Every probe run after bootstrap counts in
        # reprobes_run and the rediscovery_probes_sent / _rounds totals;
        # rediscoveries_run counts the runs that added a switch.
        self.path_requests_served = 0
        self.patches_flooded = 0
        self.reprobes_run = 0
        self.reprobes_retried = 0
        self.announces_retried = 0
        self.rediscoveries_run = 0
        self.rediscovery_probes_sent = 0
        self.rediscovery_rounds = 0

    # ------------------------------------------------------------------
    # bootstrap

    def run_discovery(self, network: Network) -> DiscoveryResult:
        """Discover the fabric by probing through the live emulator.

        Must be called from outside the event loop (bootstrap time).
        """
        transport = EmulatedProbeTransport(self, network)
        result = discover(transport, self.name)
        self.adopt_view(result.view, attachment=result.origin_attachment)
        return result

    def adopt_view(
        self, view: Topology, attachment: Optional[Tuple[str, int]] = None
    ) -> None:
        """Install a topology view (from discovery or from a blueprint)."""
        self.view = view
        self.view_version += 1
        self.path_service.flush()
        if attachment is None:
            ref = view.host_port(self.name)
            attachment = (ref.switch, ref.port)
        self.attachment = attachment
        self.controller = self.name
        self.tags_to_controller = ()
        self.topo_cache.record_attachment(self.name, attachment[0], attachment[1])
        self._log_change(TopologyChange(op="adopt-view", args=(self.view_version,)))

    def announce_all(self) -> int:
        """Send a :class:`ControllerAnnounce` to every known host.

        Returns the number of hosts announced to.  The caller should run
        the event loop afterwards to let the announcements deliver.
        """
        if self.view is None:
            raise RuntimeError("announce_all before discovery")
        overlay = self.compute_gossip_overlay()
        self.gossip_neighbors = dict(overlay.get(self.name, ()))
        self._announce_epoch += 1
        count = 0
        missing = []
        for host in self.view.hosts:
            if host == self.name:
                continue
            if self._announce_to(host, overlay):
                count += 1
            else:
                # The view has no route to this host right now (e.g. a
                # failover adopted a replica view that still misses
                # links a dead probe run never confirmed).  Retry: the
                # host would otherwise keep querying a dead controller
                # forever.
                missing.append(host)
        if missing:
            self.loop.schedule(
                ANNOUNCE_RETRY_S,
                self._retry_announce,
                tuple(missing),
                1,
                self._announce_epoch,
            )
        return count

    def _retry_announce(
        self, missing: Tuple[str, ...], attempt: int, epoch: int
    ) -> None:
        if (
            epoch != self._announce_epoch
            or not self.powered
            or self.view is None
            or self.controller != self.name  # demoted in the meantime
        ):
            return
        overlay = self.compute_gossip_overlay()
        still_missing = []
        for host in missing:
            if not self.view.has_host(host):
                continue
            if self._announce_to(host, overlay):
                self.announces_retried += 1
            else:
                still_missing.append(host)
        if still_missing and attempt < ANNOUNCE_RETRIES:
            self.loop.schedule(
                ANNOUNCE_RETRY_S,
                self._retry_announce,
                tuple(still_missing),
                attempt + 1,
                epoch,
            )

    def bootstrap(self, network: Network) -> DiscoveryResult:
        """Discovery + announcements + loop drain: ready-to-run fabric."""
        result = self.run_discovery(network)
        self.announce_all()
        network.run_until_idle()
        return result

    def compute_gossip_overlay(self) -> Overlay:
        """Per-host gossip neighbor lists (Section 4.2 stage 1).

        Every host floods to all hosts on its own switch plus one host
        on each of the *nearest host-bearing* switches -- the paper says
        "the message starts from the hosts on the same switch, then goes
        to hosts on the neighboring switches".  Directly-adjacent
        switches may carry no hosts at all (spine switches in a
        leaf-spine fabric), so the search walks outward by BFS until it
        has found enough populated switches; otherwise the overlay would
        disconnect at the spine layer and stage-2 patches could never
        cross leaves.  Capped at ``GOSSIP_FANOUT`` entries; the
        controller is always included.
        """
        assert self.view is not None
        view = self.view
        all_hosts = sorted(view.hosts)
        index_of = {h: i for i, h in enumerate(all_hosts)}
        # Hoisted out of the per-pair loop: whether backup routes are
        # wanted at all, decided once per rebuild.
        want_backup = self.config.gossip_route_redundancy >= 2
        overlay: Overlay = {}
        for host in view.hosts:
            my_switch = view.host_port(host).switch
            candidates: List[str] = []
            # Ring successors first: a global ring over the sorted host
            # list guarantees the flood covers every host no matter how
            # the fan-out cap trims the locality picks below.
            if len(all_hosts) > 1:
                i = index_of[host]
                candidates.append(all_hosts[(i + 1) % len(all_hosts)])
                if len(all_hosts) > 2:
                    candidates.append(all_hosts[(i + 2) % len(all_hosts)])
            # Then hosts on my own switch, rotated by my position so a
            # trimmed list still chains across the whole switch.
            same = [h for h in view.hosts_on(my_switch) if h != host]
            if same:
                rot = index_of[host] % len(same)
                candidates.extend(same[rot:] + same[:rot])
            # Then one or two hosts on each of the nearest populated
            # switches, found by BFS (directly-adjacent switches may be
            # host-less spines).
            populated_found = 0
            seen_switches = {my_switch}
            frontier = [my_switch]
            while frontier and populated_found < GOSSIP_FANOUT:
                nxt: List[str] = []
                for switch in frontier:
                    for neighbor_switch in view.neighbors(switch):
                        if neighbor_switch in seen_switches:
                            continue
                        seen_switches.add(neighbor_switch)
                        nxt.append(neighbor_switch)
                        hosts_there = view.hosts_on(neighbor_switch)
                        if hosts_there:
                            populated_found += 1
                            candidates.append(hosts_there[0])
                            if len(hosts_there) > 1:
                                candidates.append(hosts_there[-1])
                frontier = nxt
            # The controller always makes the list: stage 2 depends on
            # the flood reaching it.
            if self.name not in candidates and host != self.name:
                candidates.append(self.name)
            trimmed: List[Tuple[str, Tuple[Tuple[int, ...], ...]]] = []
            seen: Set[str] = set()
            for peer in candidates:
                if peer in seen or peer == host:
                    continue
                seen.add(peer)
                routes = self._routes_between(host, peer, want_backup=want_backup)
                if routes:
                    trimmed.append((peer, routes))
                if len(trimmed) >= GOSSIP_FANOUT:
                    break
            overlay[host] = tuple(trimmed)
        return overlay

    def _tags_between(self, src_host: str, dst_host: str) -> Optional[Tuple[int, ...]]:
        assert self.view is not None
        view = self.view
        if not (view.has_host(src_host) and view.has_host(dst_host)):
            return None
        src_sw = view.host_port(src_host).switch
        dst_sw = view.host_port(dst_host).switch
        path = self.path_service.shortest_path(view, src_sw, dst_sw)
        if path is None:
            return None
        return tuple(view.encode_path(src_host, path, dst_host))

    def _routes_between(
        self, src_host: str, dst_host: str, want_backup: bool
    ) -> Tuple[Tuple[int, ...], ...]:
        """Up to two link-disjoint tag routes between two hosts.

        Gossip edges carry failure news, so a single-route edge would be
        severed by exactly the failures it must report; sending each
        flood message on two disjoint routes keeps the overlay connected
        under any single link failure (duplicates are deduplicated by
        the receivers anyway).  The primary comes from the path
        service's shared SSSP tree; only the backup (whose link costs
        are unique to this primary) runs a fresh search.
        """
        assert self.view is not None
        view = self.view
        if not (view.has_host(src_host) and view.has_host(dst_host)):
            return ()
        src_sw = view.host_port(src_host).switch
        dst_sw = view.host_port(dst_host).switch
        primary = self.path_service.shortest_path(view, src_sw, dst_sw)
        if primary is None:
            return ()
        routes = [tuple(view.encode_path(src_host, primary, dst_host))]
        if want_backup:
            backup = backup_path(view, primary)
            if backup is not None:
                routes.append(tuple(view.encode_path(src_host, backup, dst_host)))
        return tuple(routes)

    # ------------------------------------------------------------------
    # path queries (Section 4.3)

    def handle_path_request(self, request: PathRequest) -> None:
        if self.view is None:
            return
        self.path_requests_served += 1
        view = self.view
        found = view.has_host(request.src) and view.has_host(request.dst)
        edges: Tuple[Tuple[str, int, str, int], ...] = ()
        src_att = dst_att = None
        if found:
            src_ref = view.host_port(request.src)
            dst_ref = view.host_port(request.dst)
            src_att = (src_ref.switch, src_ref.port)
            dst_att = (dst_ref.switch, dst_ref.port)
            graph = self.path_service.path_graph(
                view,
                src_ref.switch,
                dst_ref.switch,
                s=PATH_GRAPH_S,
                epsilon=PATH_GRAPH_EPSILON,
            )
            if graph is None:
                found = False
            else:
                edges = graph.edges
        reply = PathReply(
            nonce=request.nonce,
            src=request.src,
            dst=request.dst,
            found=found,
            src_attachment=src_att,
            dst_attachment=dst_att,
            edges=edges,
            version=self.view_version,
        )
        tags_out = self._tags_between(self.name, request.src)
        if tags_out is not None:
            self.send_tagged(tags_out, reply, dst=request.src)

    # ------------------------------------------------------------------
    # failure handling, stage 2 (Section 4.2)

    def on_news(self, note: PortStateNotification) -> None:
        if self.view is None:
            return
        if note.up:
            self.loop.schedule(0.0, self._start_reprobe, note.switch, note.port)
            return
        if not self.view.has_switch(note.switch):
            return
        peer = self.view.peer(note.switch, note.port)
        if peer is None or not isinstance(peer, PortRef):
            return  # host-facing port or already-removed link
        self.view.remove_link(note.switch, note.port, peer.switch, peer.port)
        self.view_version += 1
        self.path_service.invalidate_link(
            self.view, note.switch, note.port, peer.switch, peer.port
        )
        change = TopologyChange(
            op="link-down", args=(note.switch, note.port, peer.switch, peer.port)
        )
        self._log_change(change)
        self.loop.schedule(
            PATCH_DELAY_S, self._flood_patch, (change,), self.view_version
        )

    def _flood_patch(self, changes: Tuple[TopologyChange, ...], version: int) -> None:
        patch = TopologyPatch(version=version, changes=changes, origin=self.name)
        self.patches_flooded += 1
        if self.tracer is not None:
            self.tracer.record(self.loop.now, "patch-flooded", self.name, patch)
        # Mark as seen so our own relay logic does not reprocess it,
        # then push it into the gossip overlay.
        self._seen_patches.add((patch.origin, patch.version))
        for neighbor, routes in self.gossip_neighbors.items():
            for tags in routes:
                self.send_tagged(tags, patch, dst=neighbor)

    def _log_change(self, change: TopologyChange) -> None:
        if self.replicator is not None:
            self.replicator.append(change)

    # ------------------------------------------------------------------
    # link-up reprobing (Section 4.2: "upon receiving link-up
    # notifications, the controller will probe the ports to discover and
    # verify the newly added links and switches")

    def _start_reprobe(self, switch: str, port: int, attempt: int = 0) -> None:
        """Start one probe run seeded with a dirty port: the engine's
        scan, verification and, behind an unknown switch, its frontier
        recursion, one settle period per round."""
        if self.view is None:
            return
        key = (switch, port)
        if key in self._probe_runs:
            # A link-up landed while a run for this port is already in
            # flight.  Its probes race the state change, so whatever it
            # concludes may be stale; dropping the notification here
            # would leave the view stale forever (no further news will
            # arrive for a port that stays up).  Re-arm one fresh run
            # to start when this one ends.
            self._probe_runs[key] = True
            return
        engine = RediscoveryEngine(
            view=self.view,
            origin=self.name,
            max_ports=max(self.view.num_ports(sw) for sw in self.view.switches),
            window=PROBE_RUN_WINDOW,
            on_change=self._on_rediscovery_change,
        )
        if not engine.add_frontier(switch, port):
            return  # unknown switch, or the view already has something there
        self._probe_runs[key] = False
        self.reprobes_run += 1
        AsyncProbeDriver(
            self,
            engine,
            settle_s=REPROBE_SETTLE_S,
            on_round=self._on_rediscovery_round,
            on_done=partial(self._on_rediscovery_done, switch, port, attempt),
        ).start()

    def _on_rediscovery_change(self, change: TopologyChange) -> None:
        """One element confirmed (view already mutated by the engine):
        bump the version, invalidate paths precisely, replicate."""
        assert self.view is not None
        self.view_version += 1
        self.path_service.note_topology_change(self.view, change.op, change.args)
        self._log_change(change)

    def _on_rediscovery_round(self, confirmed: List[TopologyChange]) -> None:
        """A probe round landed something: flood one batched patch and
        welcome any hosts that appeared."""
        self._flood_patch(tuple(confirmed), self.view_version)
        for change in confirmed:
            if change.op == "host-up":
                self._welcome_host(change.args[0])

    def _on_rediscovery_done(
        self, switch: str, port: int, attempt: int, driver: AsyncProbeDriver
    ) -> None:
        rearm = self._probe_runs.pop((switch, port))
        engine = driver.engine
        self.rediscovery_probes_sent += engine.stats.probes_sent
        self.rediscovery_rounds += engine.stats.rounds
        if engine.switches_added:
            self.rediscoveries_run += 1
        if self.obs is not None:
            self.obs.reprobe_latency.observe(self.loop.now - driver.started_at)
        if rearm:
            # News arrived mid-run: whatever this run saw may already be
            # stale.  Run one fresh attempt (a new notification, not a
            # retry of the old one); it supersedes the retry chain.
            self.loop.schedule(0.0, self._start_reprobe, switch, port)
        elif engine.view.peer(switch, port) is None:
            # Nothing confirmed behind the port.  Either it is really
            # empty, or every probe of this run was lost (lossy fabric,
            # no route to the port yet): silence cannot distinguish the
            # two (Section 3.3), so retry a bounded number of times
            # before accepting "empty".
            self._maybe_retry_reprobe(switch, port, attempt)

    def _maybe_retry_reprobe(self, switch: str, port: int, attempt: int) -> None:
        if attempt >= REPROBE_RETRIES:
            return
        self.reprobes_retried += 1
        self.loop.schedule(
            REPROBE_SETTLE_S * (2 ** attempt),
            self._start_reprobe,
            switch,
            port,
            attempt + 1,
        )

    def reprobe_unknown_ports(self) -> int:
        """Schedule a reprobe of every port the view knows nothing
        about.  A freshly promoted primary calls this: the replica view
        it adopted may miss links whose probe runs died with the old
        primary, and no further link-up news will ever arrive for
        them."""
        if self.view is None:
            return 0
        count = 0
        for switch in sorted(self.view.switches):
            for port in range(1, self.view.num_ports(switch) + 1):
                if self.view.peer(switch, port) is None:
                    self.loop.schedule(0.0, self._start_reprobe, switch, port)
                    count += 1
        return count

    def _welcome_host(self, host: str) -> None:
        """Announce ourselves to a newly discovered host so it can
        query paths and participate in the gossip overlay."""
        self._announce_to(host, None)

    def _announce_to(self, host: str, overlay: Optional[Overlay]) -> bool:
        """Send ``host`` one :class:`ControllerAnnounce`: the tags both
        ways, its attachment and its gossip neighbours.
        Returns False, sending nothing, when the view has no route to
        it right now.  ``overlay`` None builds the gossip overlay only
        once a route exists."""
        assert self.view is not None
        tags_out = self._tags_between(self.name, host)
        tags_back = self._tags_between(host, self.name)
        if tags_out is None or tags_back is None:
            return False
        if overlay is None:
            overlay = self.compute_gossip_overlay()
        ref = self.view.host_port(host)
        announce = ControllerAnnounce(
            controller=self.name,
            tags_to_controller=tags_back,
            your_attachment=(ref.switch, ref.port),
            gossip_neighbors=overlay.get(host, ()),
        )
        self.send_tagged(tags_out, announce, dst=host)
        return True

