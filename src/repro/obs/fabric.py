"""The fabric-facing side of observability.

:class:`FabricObs` is the live hub a fabric carries when observability
is enabled: one :class:`~repro.obs.metrics.MetricsRegistry` clocked by
the simulator and the pre-created histograms hot paths record into
(channel queueing delay, controller-query latency, reprobe latency,
installed path lengths).  The fabric hands it to every host agent it
builds and to its :class:`~repro.netsim.network.Network`, which points
each channel's queue-wait gate at it; without a hub those ``is not
None`` gates stay dormant and the fabric pays nothing.

:func:`observe_fabric` takes a *snapshot*: it walks the fabric's
existing counters (event loop, switches, channels, host agents, the
controller's path service), its tracer's event record and the hub's
live metrics and wraps them in an :class:`Observation` -- a
:class:`~repro.obs.report.ReportBase` report that also renders
Prometheus exposition text.  Snapshotting is read-only: it schedules
nothing, sends nothing, and draws no randomness, so it can run
mid-simulation without perturbing anything.

Everything here is duck-typed against the fabric (``network``,
``agents``, ``controller``, ``obs`` attributes) -- this module never
imports ``repro.core``, which imports it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .export import Labels, Sample, metric_name, to_prometheus, to_table
from .metrics import Histogram, MetricsRegistry
from .report import ReportBase

__all__ = ["FabricObs", "Observation", "observe_fabric"]

#: Aggregate counters sampled off every switch device.
_SWITCH_COUNTERS = (
    "forwarded",
    "dropped_bad_tag",
    "dropped_dead_port",
    "id_queries_answered",
    "notifications_originated",
    "packets_received",
    "packets_sent",
)

#: Counters sampled off every host agent.
_HOST_COUNTERS = (
    "app_sent",
    "app_delivered",
    "dropped_invalid",
    "news_received",
    "gossip_sent",
    "path_queries_sent",
    "path_queries_abandoned",
)

#: Counters sampled off the controller (beyond the host set).
_CONTROLLER_COUNTERS = (
    "path_requests_served",
    "patches_flooded",
    "reprobes_run",
    "reprobes_retried",
    "announces_retried",
    "rediscoveries_run",
    "rediscovery_probes_sent",
    "rediscovery_rounds",
)


class FabricObs:
    """Live instrumentation attached to one fabric.

    Built by ``DumbNetFabric(..., obs=True)`` and read back through
    ``fabric.observe()``.
    """

    def __init__(self, clock=None) -> None:
        self.registry = MetricsRegistry(clock=clock)
        # Pre-created histograms: hot-path call sites hold the direct
        # reference and pay one observe() per recorded sample.
        self.link_queue_wait = self.registry.histogram("netsim.link.queue_wait_s")
        self.nic_queue_wait = self.registry.histogram("netsim.nic.queue_wait_s")
        self.query_latency = self.registry.histogram("host.path_query.latency_s")
        self.path_tags = self.registry.histogram(
            "host.path.tags", least=1.0, growth=2.0
        )
        self.reprobe_latency = self.registry.histogram(
            "controller.reprobe.latency_s"
        )
        self.rediscovery_latency = self.registry.histogram(
            "controller.rediscovery.latency_s"
        )
        self.rediscovery_frontier_depth = self.registry.histogram(
            "controller.rediscovery.frontier_depth", least=1.0, growth=2.0
        )


class Observation(ReportBase):
    """One point-in-time snapshot of everything observable."""

    __slots__ = ("_data", "_samples", "_histograms")

    def __init__(
        self,
        data: Dict[str, Any],
        samples: List[Sample],
        histograms: List[Tuple[str, Labels, Histogram]],
    ) -> None:
        self._data = data
        self._samples = samples
        self._histograms = histograms

    def as_dict(self) -> Dict[str, Any]:
        return self._data

    def to_prometheus(self) -> str:
        return to_prometheus(self._samples, self._histograms)

    def summary(self) -> str:
        data = self._data
        loop = data["loop"]
        channels = data["channels"]
        fabric_rows = [
            ("sim clock", f"{data['now']:.6f}s"),
            ("events run", loop["events_run"]),
            ("events pending", loop["pending"]),
            ("switches", len(data["switches"])),
            ("hosts", len(data["hosts"])),
            ("frames on links", channels["link"]["frames_delivered"]),
            ("frames on NICs", channels["nic"]["frames_delivered"]),
            ("frames dropped", channels["link"]["frames_dropped"]
             + channels["nic"]["frames_dropped"]),
        ]
        controller = data.get("controller")
        if controller:
            fabric_rows.extend([
                ("controller", controller["name"]),
                ("path requests served", controller["path_requests_served"]),
                ("path cache hits/misses",
                 f"{controller['path_service'].get('hits', 0)}"
                 f"/{controller['path_service'].get('misses', 0)}"),
            ])
        hist_rows = []
        for name, _labels, hist in self._histograms:
            if hist.count == 0:
                continue
            hist_rows.append((
                name, hist.count,
                f"{hist.p50:.3g}", f"{hist.p95:.3g}", f"{hist.p99:.3g}",
            ))
        event_rows = [
            (category, body["seen"]) for category, body in data["events"].items()
        ]
        return to_table(
            {
                "fabric": fabric_rows,
                "histograms": hist_rows,
                "events": event_rows,
            },
            {
                "fabric": ("metric", "value"),
                "histograms": ("histogram", "count", "p50", "p95", "p99"),
                "events": ("category", "seen"),
            },
            title=f"observation @ {data['now']:.6f}s",
        )


def _channel_totals(channels) -> Dict[str, int]:
    totals = {"count": 0, "frames_delivered": 0, "frames_dropped": 0,
              "frames_duplicated": 0, "down": 0}
    for channel in channels:
        totals["count"] += 1
        totals["frames_delivered"] += channel.frames_delivered
        totals["frames_dropped"] += channel.frames_dropped
        totals["frames_duplicated"] += channel.frames_duplicated
        if not channel.up:
            totals["down"] += 1
    return totals


def observe_fabric(fabric: Any) -> Observation:
    """Snapshot a fabric (read-only) into an :class:`Observation`."""
    network = fabric.network
    loop = network.loop
    samples: List[Sample] = []
    histograms: List[Tuple[str, Labels, Histogram]] = []

    def sample(name: str, value: float, kind: str = "gauge",
               labels: Labels = ()) -> None:
        samples.append((name, labels, float(value), kind))

    data: Dict[str, Any] = {"kind": "observation", "now": loop.now}
    sample("dumbnet_sim_clock_seconds", loop.now)

    # Event loop.
    data["loop"] = {
        "events_run": loop.events_run,
        "pending": loop.pending,
        "heap_len": len(loop._heap),
        "dead_entries": loop.dead_entries,
    }
    sample("dumbnet_loop_events_run_total", loop.events_run, "counter")
    sample("dumbnet_loop_events_pending", loop.pending)
    sample("dumbnet_loop_heap_len", len(loop._heap))
    sample("dumbnet_loop_heap_dead_entries", loop.dead_entries)

    # Switches.
    switches: Dict[str, Any] = {}
    for name in sorted(network.switches):
        device = network.switches[name]
        row = {
            counter: getattr(device, counter, 0)
            for counter in _SWITCH_COUNTERS
        }
        row["powered"] = bool(getattr(device, "powered", True))
        labels: Labels = (("switch", name),)
        for counter, value in row.items():
            if counter == "powered":
                sample("dumbnet_switch_powered", int(value), labels=labels)
            else:
                sample(metric_name("dumbnet_switch", counter, "total"),
                       value, "counter", labels)
        tx_ports = getattr(device, "tx_frames", None)
        if tx_ports:
            row["tx_ports"] = dict(sorted(tx_ports.items()))
            for port, frames in sorted(tx_ports.items()):
                sample(
                    "dumbnet_switch_port_tx_frames_total", frames, "counter",
                    labels + (("port", str(port)),),
                )
        switches[name] = row
    data["switches"] = switches

    # Channels (aggregated per class).
    data["channels"] = {
        "link": _channel_totals(network._link_channels.values()),
        "nic": _channel_totals(network._host_channels.values()),
    }
    for cls, totals in data["channels"].items():
        labels = (("class", cls),)
        sample("dumbnet_channels", totals["count"], labels=labels)
        sample("dumbnet_channels_down", totals["down"], labels=labels)
        for counter in ("frames_delivered", "frames_dropped", "frames_duplicated"):
            sample(metric_name("dumbnet_channel", counter, "total"),
                   totals[counter], "counter", labels)

    # Host agents + their path tables.
    hosts: Dict[str, Any] = {}
    agents = getattr(fabric, "agents", {})
    for name in sorted(agents):
        agent = agents[name]
        row = {
            counter: getattr(agent, counter, 0) for counter in _HOST_COUNTERS
        }
        table = getattr(agent, "path_table", None)
        if table is not None:
            row["path_table"] = {
                "lookups": table.lookups,
                "hits": table.hits,
                "invalidations": table.invalidations,
                "failovers": table.failovers,
                "size_paths": table.size_paths,
            }
        labels = (("host", name),)
        for counter in _HOST_COUNTERS:
            sample(metric_name("dumbnet_host", counter, "total"),
                   row[counter], "counter", labels)
        for counter, value in row.get("path_table", {}).items():
            kind = "gauge" if counter == "size_paths" else "counter"
            sample(metric_name("dumbnet_path_table", counter), value,
                   kind, labels)
        hosts[name] = row
    data["hosts"] = hosts

    # Controller + path service.
    controller = getattr(fabric, "controller", None)
    if controller is not None:
        row = {
            "name": controller.name,
            "view_version": controller.view_version,
        }
        for counter in _CONTROLLER_COUNTERS:
            row[counter] = getattr(controller, counter, 0)
            sample(metric_name("dumbnet_controller", counter, "total"),
                   row[counter], "counter")
        sample("dumbnet_controller_view_version", controller.view_version)
        service = getattr(controller, "path_service", None)
        row["path_service"] = (
            service.stats.as_dict() if service is not None else {}
        )
        for counter, value in row["path_service"].items():
            sample(metric_name("dumbnet_path_service", counter, "total"),
                   value, "counter")
        # Control-plane shards (when enable_sharding is on): per-pod
        # queries/sec, hit ratio and latency percentiles.
        shard_service = getattr(controller, "shard_service", None)
        if shard_service is not None:
            shard_report = shard_service.report()
            row["shards"] = shard_report
            for counter in ("global_queries", "stitched_routes",
                            "stitch_fallbacks"):
                sample(metric_name("dumbnet_pathshard", counter, "total"),
                       shard_report[counter], "counter")
            for pod, srow in sorted(shard_report["shards"].items()):
                labels = (("pod", str(pod)),)
                sample("dumbnet_pathshard_queries_total",
                       srow["queries"], "counter", labels)
                sample("dumbnet_pathshard_queries_per_second",
                       srow["queries_per_s"], "gauge", labels)
                sample("dumbnet_pathshard_hit_ratio",
                       srow["hit_ratio"], "gauge", labels)
                sample("dumbnet_pathshard_p99_latency_seconds",
                       srow["p99_latency_s"], "gauge", labels)
                sample("dumbnet_pathshard_alive_replicas",
                       srow["alive_replicas"], "gauge", labels)
        # Replica apply outcomes (dropped > 0 flags divergence).
        replicator = getattr(controller, "replicator", None)
        apply_stats = getattr(replicator, "apply_stats", None)
        if apply_stats:
            row["replication"] = {
                replica: dict(stats)
                for replica, stats in sorted(apply_stats.items())
            }
            for replica, stats in sorted(apply_stats.items()):
                labels = (("replica", replica),)
                for counter, value in stats.items():
                    sample(metric_name("dumbnet_replica_apply", counter,
                                       "total"),
                           value, "counter", labels)
        data["controller"] = row

    # Flow-level dataplane (fluid or hybrid engine), when attached via
    # from_topology(engine="fluid"|"hybrid").  Duck-typed like the rest
    # of this module: anything with a ReportBase-conforming report().
    dataplane = getattr(fabric, "dataplane", None)
    if dataplane is not None:
        plane = dataplane.report().as_dict()
        data["dataplane"] = plane
        flows = plane.get("flows", {})
        for counter in ("total", "active", "completed", "stalled"):
            sample(f"dumbnet_fluid_flows_{counter}",
                   flows.get(counter, 0), "gauge")
        for counter in ("epochs", "recomputes", "recompute_skips"):
            sample(f"dumbnet_fluid_{counter}_total",
                   plane.get(counter, 0), "counter")
        promoted = plane.get("promoted")
        if promoted is not None:
            # Per-region fidelity counters + boundary gauges (hybrid).
            sample("dumbnet_hybrid_promoted_active",
                   promoted["active"], "gauge")
            sample("dumbnet_hybrid_promoted_total",
                   promoted["total"], "counter")
            region = plane.get("packet_region", {})
            sample("dumbnet_hybrid_region_events_total",
                   region.get("events_run", 0), "counter")
            sample("dumbnet_hybrid_region_frames_total",
                   region.get("frames_delivered", 0), "counter")
            boundary = plane.get("boundary", {})
            sample("dumbnet_hybrid_couplings_total",
                   boundary.get("couplings", 0), "counter")
            sample("dumbnet_hybrid_consistency_rel_err",
                   boundary.get("consistency_last_rel_err", 0.0), "gauge")
            sample("dumbnet_hybrid_consistency_max_rel_err",
                   boundary.get("consistency_max_rel_err", 0.0), "gauge")
    else:
        data["dataplane"] = None

    # The event record every fabric keeps.
    data["events"] = fabric.tracer.as_dict()

    # Live hub metrics (only present when the fabric was built with
    # observability enabled).
    hub: Optional[FabricObs] = getattr(fabric, "obs", None)
    if hub is not None:
        data["metrics"] = hub.registry.as_dict()
        for name, metric in hub.registry:
            prom = metric_name("dumbnet", name)
            if isinstance(metric, Histogram):
                histograms.append((prom, (), metric))
            else:
                sample(prom, metric.value,
                       "counter" if metric.kind == "counter" else "gauge")
    else:
        data["metrics"] = None

    return Observation(data, samples, histograms)
