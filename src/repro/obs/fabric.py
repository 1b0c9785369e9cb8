"""The fabric-facing side of observability.

:class:`FabricObs` is the live hub a fabric carries when observability
is enabled: the five histograms hot paths record into (link and NIC
queueing delay, controller-query latency, installed path lengths,
reprobe latency), all fed simulated durations.  The fabric hands it to
every host agent it builds and to its
:class:`~repro.netsim.network.Network`, which points each channel's
queue-wait gate at it; without a hub those ``is not None`` gates stay
dormant and the fabric pays nothing.

:func:`observe_fabric` takes a *snapshot*: it walks the fabric's
existing counters (event loop, switches, channels, host agents, the
controller's path service), its tracer's event record and the hub's
histograms into one dict, wrapped in an :class:`Observation` that
renders it as JSON or as a summary table.  Snapshotting is read-only:
it schedules nothing, sends nothing, and draws no randomness, so it
can run mid-simulation without perturbing anything.

Everything here is duck-typed against the fabric (``network``,
``agents``, ``controller``, ``obs`` attributes) -- this module never
imports ``repro.core``, which imports it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..analysis.tables import render_table
from .metrics import Histogram
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
    ``fabric.observe()``.  Hot-path call sites hold the direct
    reference and pay one ``observe()`` per recorded sample.
    """

    def __init__(self) -> None:
        self.link_queue_wait = Histogram("netsim.link.queue_wait_s")
        self.nic_queue_wait = Histogram("netsim.nic.queue_wait_s")
        self.query_latency = Histogram("host.path_query.latency_s")
        self.path_tags = Histogram("host.path.tags", least=1.0, growth=2.0)
        #: Simulated duration of one controller probe run (scan,
        #: verification and any frontier recursion), retries excluded.
        self.reprobe_latency = Histogram("controller.reprobe.latency_s")

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        """Every histogram's :meth:`~Histogram.as_dict`, sorted by name."""
        hists = (self.link_queue_wait, self.nic_queue_wait,
                 self.query_latency, self.path_tags, self.reprobe_latency)
        return {h.name: h.as_dict() for h in sorted(hists, key=lambda h: h.name)}


class Observation(ReportBase):
    """One point-in-time snapshot of everything observable."""

    __slots__ = ("_data",)

    def __init__(self, data: Dict[str, Any]) -> None:
        self._data = data

    def as_dict(self) -> Dict[str, Any]:
        return self._data

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
        hist_rows = [
            (name, hist["count"],
             f"{hist['p50']:.3g}", f"{hist['p95']:.3g}", f"{hist['p99']:.3g}")
            for name, hist in (data["metrics"] or {}).items()
            if hist["count"]
        ]
        event_rows = [
            (category, body["seen"]) for category, body in data["events"].items()
        ]
        blocks = [f"observation @ {data['now']:.6f}s"]
        for section, headers, rows in (
            ("fabric", ("metric", "value"), fabric_rows),
            ("histograms", ("histogram", "count", "p50", "p95", "p99"), hist_rows),
            ("events", ("category", "seen"), event_rows),
        ):
            if rows:
                blocks.append(render_table(headers, rows, title=f"[{section}]"))
        return "\n\n".join(blocks)


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
    data: Dict[str, Any] = {"kind": "observation", "now": loop.now}

    # Event loop.
    data["loop"] = {
        "events_run": loop.events_run,
        "pending": loop.pending,
        "heap_len": len(loop._heap),
        "dead_entries": loop.dead_entries,
    }

    # Switches.
    switches: Dict[str, Any] = {}
    for name in sorted(network.switches):
        device = network.switches[name]
        row = {
            counter: getattr(device, counter, 0)
            for counter in _SWITCH_COUNTERS
        }
        row["powered"] = bool(getattr(device, "powered", True))
        tx_ports = getattr(device, "tx_frames", None)
        if tx_ports:
            row["tx_ports"] = dict(sorted(tx_ports.items()))
        switches[name] = row
    data["switches"] = switches

    # Channels (aggregated per class).
    data["channels"] = {
        "link": _channel_totals(network._link_channels.values()),
        "nic": _channel_totals(network._host_channels.values()),
    }

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
        service = getattr(controller, "path_service", None)
        row["path_service"] = (
            service.stats.as_dict() if service is not None else {}
        )
        # Replica apply outcomes (dropped > 0 flags divergence).
        replicator = getattr(controller, "replicator", None)
        apply_stats = getattr(replicator, "apply_stats", None)
        if apply_stats:
            row["replication"] = {
                replica: dict(stats)
                for replica, stats in sorted(apply_stats.items())
            }
        data["controller"] = row

    # The event record every fabric keeps.
    data["events"] = fabric.tracer.as_dict()

    # Live hub histograms (only present when the fabric was built with
    # observability enabled).
    hub: Optional[FabricObs] = getattr(fabric, "obs", None)
    data["metrics"] = hub.as_dict() if hub is not None else None

    return Observation(data)
