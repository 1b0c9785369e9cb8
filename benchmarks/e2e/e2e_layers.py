"""Per-layer attribution from outside: boundary shims and a span stack.

``--trace`` runs install a timing shim around each entry point listed in
:data:`LAYER_ENTRY_POINTS` *before any object is built* (the emulator
pre-binds ``self._deliver`` / ``self._serve`` / ``device.receive`` at
construction, so a class-level wrap installed first is what those
bindings capture).  Nothing under ``src/`` is edited: the table below is
the benchmark's whole knowledge of the program's internals, and a name
that has been renamed or deleted is recorded as ``missing`` for its
layer instead of raising, so a later simplicity PR is not blocked by a
benchmark it may not edit.

One span stack serves two kinds of span:

* *coarse* spans -- the workload, its phases, and every shimmed call made
  directly from a phase -- are kept whole (name, start, end, parent) and
  written to ``results/trace-<workload>.json``;
* every deeper call is *folded* into its layer's ``calls`` / inclusive /
  self time.  A span's self time is its duration minus the part of that
  interval its child spans cover, so the self times of all layers are
  disjoint slices of the traced wall and sum to at most it.

What the numbers cannot see: code that is not behind a listed entry point
is charged to the closest enclosing span (a workload closure or a
rediscovery callback fired by the event loop lands in ``netsim.events``),
and each shim costs a few hundred nanoseconds that land in its *parent's*
self time, so layers that make many tiny calls into other layers read
high.  ``trace.overhead_ratio`` says how much the whole run was slowed.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "LAYER_ENTRY_POINTS", "LayerTracer"]

#: layer -> entry points, each ``"module:attribute.path"``.  A module-level
#: function is named at the site that *calls* it (``from x import f`` binds
#: a second name), which is why ``max_min_rates`` is listed as bound in
#: ``flowsim.simulator`` and ``discover`` as bound in ``core.controller``.
LAYER_ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "netsim.events": (
        "repro.netsim.events:EventLoop.run",
        "repro.netsim.events:EventLoop.run_until_idle",
    ),
    "netsim.channel": (
        "repro.netsim.channel:Channel.transmit",
        "repro.netsim.channel:Channel._deliver",
        "repro.netsim.channel:Channel.set_up",
    ),
    "netsim.device": (
        "repro.netsim.device:Device.receive",
        "repro.netsim.device:Device._serve",
        "repro.netsim.device:Device.send",
        "repro.netsim.device:Device.port_state_changed",
    ),
    "core.switch": (
        "repro.core.switch:DumbSwitch.handle_packet",
        "repro.core.switch:DumbSwitch.handle_port_state",
    ),
    "core.host_agent": (
        "repro.core.host_agent:HostAgent.handle_packet",
        "repro.core.host_agent:HostAgent.send_app",
        "repro.core.host_agent:HostAgent.send_tagged",
        "repro.core.host_agent:HostAgent.send_probe",
        "repro.core.host_agent:HostAgent._maybe_retry_request",
    ),
    "core.controller": (
        "repro.core.controller:Controller.bootstrap",
        "repro.core.controller:Controller.adopt_view",
        "repro.core.controller:Controller.announce_all",
        "repro.core.controller:Controller.handle_path_request",
        "repro.core.controller:Controller.on_news",
        "repro.core.controller:Controller._start_reprobe",
        "repro.core.controller:Controller._finish_reprobe_stage1",
        "repro.core.controller:Controller._finish_reprobe_stage2",
        "repro.core.controller:Controller._flood_patch",
    ),
    "core.discovery": (
        "repro.core.controller:discover",
    ),
    "core.pathservice": (
        "repro.core.pathservice:PathService.path_graph",
        "repro.core.pathservice:PathService.tree",
        "repro.core.pathservice:PathService.invalidate_link",
        "repro.core.pathservice:PathService.note_topology_change",
        "repro.core.pathservice:PathService.flush",
    ),
    "core.pathgraph": (
        "repro.core.pathservice:build_path_graph",
    ),
    "core.pathshard": (
        "repro.core.pathshard:ShardedPathService.path_graph",
        "repro.core.pathshard:ShardedPathService.note_topology_change",
        "repro.core.pathshard:ShardedPathService.rebuild",
    ),
    "consensus.store": (
        "repro.consensus.store:ReplicatedTopologyStore.append",
        "repro.consensus.store:ReplicatedTopologyStore.fail_primary",
    ),
    "topology.graph": (
        "repro.topology.graph:Topology.sssp_tree",
        "repro.topology.graph:Topology.shortest_switch_path",
        "repro.topology.graph:Topology.k_shortest_switch_paths",
    ),
    "flowsim.maxmin": (
        "repro.flowsim.simulator:max_min_rates",
    ),
    "flowsim.simulator": (
        "repro.flowsim.simulator:FluidSimulator.run",
        "repro.flowsim.simulator:FluidSimulator.add_flow",
    ),
    "flowsim.network": (
        "repro.flowsim.network:FlowNet.k_paths",
        "repro.flowsim.network:FlowNet.route_links",
        "repro.flowsim.network:FlowNet.path_is_alive",
    ),
    "hybrid.engine": (
        "repro.hybrid.engine:HybridEngine._admit",
        "repro.hybrid.engine:HybridEngine._couple_to",
        "repro.hybrid.engine:HybridEngine._post_recompute",
        "repro.hybrid.engine:HybridEngine._external_demands",
        "repro.hybrid.engine:HybridEngine._revalidate_external",
    ),
    "hybrid.packet_region": (
        "repro.hybrid.packet_region:PacketRegion.advance_to",
        "repro.hybrid.packet_region:PacketRegion.harvest",
        "repro.hybrid.packet_region:PacketRegion.set_backgrounds",
        "repro.hybrid.packet_region:PacketRegion.start_flow",
        "repro.hybrid.packet_region:_Sink.receive",
    ),
    "workloads.api": (
        "repro.workloads.scenario:run_scenario",
        "repro.workloads.scenario:replay_program",
        "repro.workloads.suite:TraceReplay.program",
        "repro.workloads.suite:IncastSweep.program",
    ),
    "faultinject.runner": (
        "repro.faultinject.runner:ChaosRunner.run",
        "repro.faultinject.runner:ChaosRunner._apply",
        "repro.faultinject.runner:ChaosRunner._tick",
    ),
}

LAYERS: Tuple[str, ...] = tuple(LAYER_ENTRY_POINTS)

#: Entry points whose first positional argument's length is summed into
#: ``items`` (rows handed to the max-min solver per solve).
SIZED_ENTRY_POINTS = frozenset({"repro.flowsim.simulator:max_min_rates"})

#: A shimmed call is kept as a whole span when at most this many spans are
#: open around it (workload -> phase -> top-level call).
COARSE_DEPTH = 2
#: Whole spans kept per run; beyond it top-level calls are only folded.
MAX_COARSE_SPANS = 50_000


def _resolve(target: str) -> Tuple[Any, str, Callable[..., Any]]:
    """``(owner, attribute, function)`` for one entry point, or raise."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    fn = getattr(owner, attr)
    if not callable(fn):
        raise AttributeError(f"{target} is not callable")
    return owner, attr, fn


class LayerTracer:
    """Boundary shims feeding one span stack; see the module docstring."""

    def __init__(self, entry_points: Optional[Dict[str, Tuple[str, ...]]] = None) -> None:
        self.entry_points = dict(entry_points or LAYER_ENTRY_POINTS)
        self.layers: List[str] = list(self.entry_points)
        self.self_ns = [0] * len(self.layers)
        #: per entry point: [calls, inclusive ns, items]
        self.targets: Dict[str, List[int]] = {}
        #: child-cover accumulators (ns), one per open span
        self._stack: List[int] = []
        #: whole spans: [name, parent id or None, start ns, end ns]
        self.spans: List[List[Any]] = []
        self._open: List[int] = []
        self.dropped_spans = 0
        self.missing: Dict[str, List[str]] = {layer: [] for layer in self.layers}
        self.resolved: Dict[str, List[str]] = {layer: [] for layer in self.layers}
        self._installed: List[Tuple[Any, str, Any]] = []
        self._t0 = time.perf_counter_ns()

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        """Wrap every resolvable entry point; record the rest as missing."""
        for index, layer in enumerate(self.layers):
            for target in self.entry_points[layer]:
                try:
                    owner, attr, fn = _resolve(target)
                except (ImportError, AttributeError):
                    self.missing[layer].append(target)
                    continue
                setattr(owner, attr, self._make_shim(fn, index, target))
                self._installed.append((owner, attr, fn))
                self.resolved[layer].append(target)

    def uninstall(self) -> None:
        """Put the original callables back (tests share one process)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def status(self, layer: str) -> str:
        if not self.resolved[layer]:
            return "absent"
        return "partial" if self.missing[layer] else "ok"

    def _make_shim(self, fn: Callable[..., Any], index: int, target: str) -> Callable[..., Any]:
        stat = self.targets.setdefault(target, [0, 0, 0])
        stack, self_ns = self._stack, self.self_ns
        spans, open_ids = self.spans, self._open
        now = time.perf_counter_ns
        sized = target in SIZED_ENTRY_POINTS
        tracer = self

        @functools.wraps(fn)
        def shim(*args: Any, **kwargs: Any) -> Any:
            span_id = -1
            if len(stack) <= COARSE_DEPTH:
                if len(spans) < MAX_COARSE_SPANS:
                    span_id = len(spans)
                    spans.append([target, open_ids[-1] if open_ids else None, 0, 0])
                    open_ids.append(span_id)
                else:
                    tracer.dropped_spans += 1
            if sized:
                stat[2] += len(args[0])
            stack.append(0)
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = now() - t0
                self_ns[index] += dt - stack.pop()
                stat[0] += 1
                stat[1] += dt
                if stack:
                    stack[-1] += dt
                if span_id >= 0:
                    open_ids.pop()
                    span = spans[span_id]
                    span[2] = t0
                    span[3] = t0 + dt

        return shim

    # ------------------------------------------------------------------
    # manual (workload / phase) spans and the timed-region window

    @contextmanager
    def span(self, name: str):
        """A whole span opened by the benchmark itself (workload, phase)."""
        span_id = len(self.spans)
        self.spans.append([name, self._open[-1] if self._open else None, 0, 0])
        self._open.append(span_id)
        self._stack.append(0)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            dt = time.perf_counter_ns() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1] += dt
            self._open.pop()
            self.spans[span_id][2] = t0
            self.spans[span_id][3] = t0 + dt

    def reset_fold(self) -> None:
        """Zero the folded numbers (start of the timed region): the layer
        table describes the timed region only; set-up and checking keep
        their whole spans but do not pollute it."""
        self.self_ns[:] = [0] * len(self.layers)
        for stat in self.targets.values():
            stat[:] = [0, 0, 0]

    def snapshot(self) -> Dict[str, Any]:
        """The folded numbers as plain data (end of the timed region)."""
        layers = {}
        for index, layer in enumerate(self.layers):
            stats = [self.targets[t] for t in self.resolved[layer]]
            layers[layer] = {
                "status": self.status(layer),
                "missing": list(self.missing[layer]),
                "calls": sum(s[0] for s in stats),
                "self_s": self.self_ns[index] / 1e9,
                "inclusive_s": sum(s[1] for s in stats) / 1e9,
            }
        return {
            "layers": layers,
            "entry_points": {
                target: {"calls": s[0], "inclusive_s": s[1] / 1e9, "items": s[2]}
                for target, s in self.targets.items()
            },
        }

    def span_rows(self) -> List[Dict[str, Any]]:
        """Whole spans as JSON rows, times in seconds since tracer start."""
        t0 = self._t0
        return [
            {
                "id": span_id,
                "name": name,
                "parent": parent,
                "start_s": (start - t0) / 1e9,
                "end_s": (end - t0) / 1e9,
            }
            for span_id, (name, parent, start, end) in enumerate(self.spans)
        ]
