"""The seven end-to-end workloads.

Each :class:`Case` has three steps.  ``setup`` builds everything the timed
region needs (and imports ``repro``, so the import is part of
``setup_s``); ``run`` is the timed region and nothing else; ``check``
verifies the outputs and reads the counters.  Every input -- pair lists,
storms, flow programs, fault schedules -- is generated here from the seed;
the program only ever sees generated inputs.  Closed loop, one client: the
benchmark process issues the next call when the previous one returns.

Sizes are written as the issue measured them (4-6.5 s timed regions on the
reference host) and multiplied by ``scale``.  The committed default
(:data:`DEFAULT_SCALE`) is the uniform scale-down the total-time cap of the
benchmark contract forces: 4 + 22 x 7 runs, each several fresh
subprocesses, in under an hour.

The counters a case reports are keyed by the per-layer metric they feed
(see ``PER_LAYER_EXTRAS`` in ``e2e_report.py``); they are read from the
objects' public attributes after the run and, where set-up also drives
the layer, are deltas over the timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["CASES", "DEFAULT_SCALE", "Case", "digest"]

#: Uniform scale applied to the issue's sizes; gives ~2-3 s timed regions.
DEFAULT_SCALE = 0.6

#: Path-graph parameters of the control-plane storm: the host agents'
#: defaults (``AgentConfig.path_graph_s`` / ``path_graph_epsilon``).
PATH_GRAPH_S = 2
PATH_GRAPH_EPSILON = 1


def digest(value: Any) -> str:
    """sha256 of a JSON rendering; floats go through ``repr`` exactly."""
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _commits(store: Any) -> int:
    """Entries the quorum store's current leader has committed."""
    leader = store.primary
    return store.cluster.nodes[leader].commit_index if leader is not None else 0


class Case:
    """One workload: ``setup`` -> ``run`` (timed) -> ``check``."""

    name = ""
    #: one line: why this workload exists (also BENCHMARK.json's ``why``)
    why = ""
    #: what the work-per-host-second figure beside ``wall_s`` counts
    work_unit = "ops"

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale
        #: every generated input draws from this, so ``--seed`` moves all
        self.rng = random.Random(f"e2e:{self.name}:{seed}")

    def scaled(self, full: float, floor: int = 1) -> int:
        return max(floor, int(round(full * self.scale)))

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def check(self) -> Dict[str, Any]:
        """``attempted``/``failed`` operations, ``work`` done, exact
        simulated statistics (``sim``), a ``detail`` digest of the full
        outputs, and per-layer ``counters``."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# native fabric helpers


def _fabric_totals(fabric: Any) -> Dict[str, float]:
    """Running totals of a native fabric's public counters."""
    from repro.core.controller import Controller
    from repro.obs.fabric import observe_fabric

    data = observe_fabric(fabric).as_dict()
    switches = list(data["switches"].values())
    hosts = list(data["hosts"].values())
    channels = data["channels"].values()
    totals: Dict[str, float] = {
        "events": data["loop"]["events_run"],
        "frames": sum(c["frames_delivered"] for c in channels),
        "drops": sum(c["frames_dropped"] for c in channels),
        "forwarded": sum(s["forwarded"] for s in switches),
        "switch_dropped": sum(
            s["dropped_bad_tag"] + s["dropped_dead_port"] for s in switches
        ),
        "app_sent": sum(h["app_sent"] for h in hosts),
        "path_queries": sum(h["path_queries_sent"] for h in hosts),
        "pt_lookups": sum(h["path_table"]["lookups"] for h in hosts),
        "pt_hits": sum(h["path_table"]["hits"] for h in hosts),
        "requests_served": 0,
        "rediscovery_probes": 0,
        "ps_hits": 0,
        "ps_misses": 0,
        "ps_tree_builds": 0,
        "ps_link_evictions": 0,
    }
    # Every controller-capable agent (chaos fabrics have standbys).
    for agent in fabric.agents.values():
        if isinstance(agent, Controller):
            stats = agent.path_service.stats
            totals["requests_served"] += agent.path_requests_served
            totals["rediscovery_probes"] += agent.rediscovery_probes_sent
            totals["ps_hits"] += stats.hits
            totals["ps_misses"] += stats.misses
            totals["ps_tree_builds"] += stats.tree_builds
            totals["ps_link_evictions"] += stats.link_evictions
    return totals


def _fabric_counters(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    """Per-layer counters of a native fabric over the timed region."""
    d = {k: v - before[k] for k, v in after.items()}
    lookups = d["ps_hits"] + d["ps_misses"]
    return {
        "netsim.events.events": d["events"],
        "netsim.channel.frames": d["frames"],
        "netsim.channel.drops": d["drops"],
        "core.switch.forwarded": d["forwarded"],
        "core.switch.dropped": d["switch_dropped"],
        "core.host_agent.app_sent": d["app_sent"],
        "core.host_agent.path_queries": d["path_queries"],
        "core.host_agent.pathtable_hit_share": _share(d["pt_hits"], d["pt_lookups"]),
        "core.controller.requests_served": d["requests_served"],
        "core.discovery.probes": d["rediscovery_probes"],
        "core.pathservice.lookups": lookups,
        "core.pathservice.hit_share": _share(d["ps_hits"], lookups),
        "core.pathservice.tree_builds": d["ps_tree_builds"],
        "core.pathservice.link_evictions": d["ps_link_evictions"],
        "core.pathgraph.builds": d["ps_misses"],
    }


# ----------------------------------------------------------------------
# 1. bootstrap_discovery


class BootstrapDiscovery(Case):
    name = "bootstrap_discovery"
    why = ("Fig 8a bootstrap, packet by packet: netsim + switch + host agent + "
           "discovery do all the work; PathService and flowsim are bypassed")
    work_unit = "events"

    #: (switches, cube dims), ascending; the issue's size is the last.
    DIMS = ((8, (2, 2, 2)), (18, (3, 3, 2)), (27, (3, 3, 3)), (36, (4, 3, 3)),
            (48, (4, 4, 3)), (60, (5, 4, 3)), (75, (5, 5, 3)))

    def setup(self) -> None:
        from repro.core.fabric import DumbNetFabric
        from repro.topology import cube

        # Discovery cost grows faster than the switch count, so the
        # scale picks the largest torus whose *switch count* fits.
        want = 75 * self.scale
        dims = [d for n, d in self.DIMS if n <= want] or [self.DIMS[0][1]]
        self.topology = cube(list(dims[-1]), hosts_per_switch=1, num_ports=64)
        # The torus is vertex-transitive: the controller's position
        # changes the probe order, not the amount of work.
        controller = self.rng.choice(sorted(self.topology.hosts))
        self.fabric = DumbNetFabric(
            self.topology, controller_host=controller, seed=self.seed
        )
        self.before = _fabric_totals(self.fabric)

    def run(self) -> None:
        self.result = self.fabric.bootstrap()

    def check(self) -> Dict[str, Any]:
        truth, view = self.topology, self.result.view
        missing = sum(
            1 for l in truth.links
            if not view.has_link(l.a.switch, l.a.port, l.b.switch, l.b.port)
        )
        missing += sum(
            1 for h in truth.hosts
            if not (view.has_host(h) and view.host_port(h) == truth.host_port(h))
        )
        attempted = len(truth.links) + len(truth.hosts)
        if missing == 0 and not view.same_wiring(truth):
            missing = attempted  # nothing missing yet not the same: spurious wiring
        counters = _fabric_counters(_fabric_totals(self.fabric), self.before)
        counters["core.discovery.probes"] = self.result.stats.probes_sent
        sim = {
            "sim.duration_s": self.fabric.now,
            "sim.discovery_s": self.result.stats.elapsed_s,
        }
        return {
            "attempted": attempted,
            "failed": missing,
            "work": counters["netsim.events.events"],
            "sim": sim,
            "detail": digest(sorted(str(l) for l in view.links)),
            "counters": counters,
        }


# ----------------------------------------------------------------------
# 2 + 3. native_coldstart / native_warm


class _NativePings(Case):
    work_unit = "events"
    packets_per_pair = 0
    warm = False

    def setup(self) -> None:
        from repro.core.controller import ControllerConfig
        from repro.core.fabric import DumbNetFabric
        from repro.topology import fat_tree

        topology = fat_tree(8, num_ports=64)
        controller = topology.hosts[0]
        self.fabric = DumbNetFabric(
            topology,
            controller_host=controller,
            seed=self.seed,
            controller_config=ControllerConfig(proc_delay_s=50e-6),
        )
        self.fabric.adopt_blueprint()
        hosts = [h for h in topology.hosts if h != controller]
        ordered = [(a, b) for a in hosts for b in hosts if a != b]
        self.pairs = self.rng.sample(ordered, self.scaled(800, floor=8))
        if self.warm:
            self.fabric.warm_paths(self.pairs + [(b, a) for a, b in self.pairs])
        self.before = _fabric_totals(self.fabric)

    def run(self) -> None:
        from repro.workloads import measure_rtts

        self.samples = measure_rtts(
            self.fabric,
            pairs=self.pairs,
            packets_per_pair=self.packets_per_pair,
            gap_s=200e-6,
        )

    def check(self) -> Dict[str, Any]:
        from repro.workloads import quantile

        attempted = len(self.pairs) * self.packets_per_pair
        answered = {(s.src, s.dst, s.seq) for s in self.samples if s.rtt_s > 0}
        rtts = sorted(s.rtt_s for s in self.samples)
        counters = _fabric_counters(_fabric_totals(self.fabric), self.before)
        sim = {
            "sim.duration_s": self.fabric.now,
            "sim.rtt_p50_s": quantile(rtts, 0.50),
            "sim.rtt_p99_s": quantile(rtts, 0.99),
        }
        return {
            "attempted": attempted,
            "failed": attempted - len(answered),
            "work": counters["netsim.events.events"],
            "sim": sim,
            "detail": digest(sorted((s.src, s.dst, s.seq, s.rtt_s) for s in self.samples)),
            "counters": counters,
        }


class NativeColdstart(_NativePings):
    name = "native_coldstart"
    why = ("Fig 10 cold-start query storm: every pair's first ping misses, so "
           "controller -> PathService -> pathgraph -> topology.graph dominate")
    packets_per_pair = 20


class NativeWarm(_NativePings):
    name = "native_warm"
    why = ("the paper's dataplane with warm PathTables: tag push and pop-tag "
           "forwarding only; controller and PathService are bypassed")
    packets_per_pair = 60
    warm = True


# ----------------------------------------------------------------------
# 4. chaos_failover


class ChaosFailover(Case):
    name = "chaos_failover"
    why = ("seeded fault schedule on replicated controllers: two-stage failover, "
           "host rerouting, rediscovery, consensus and PathService invalidation")
    work_unit = "events"

    def setup(self) -> None:
        from repro.faultinject import ChaosRunner, FaultSchedule, build_chaos_fabric
        from repro.topology import fat_tree

        # Quiesce pings every connected host pair, so host count (squared)
        # scales the verification half and the fault count the other.
        hosts_per_edge = max(1, int(round(3 * math.sqrt(self.scale))))
        topology = fat_tree(6, hosts_per_edge=min(3, hosts_per_edge))
        controllers = tuple(sorted(topology.hosts)[:3])
        schedule = FaultSchedule.random(
            topology,
            seed=self.rng.randrange(2**31),
            n_faults=self.scaled(30, floor=4),
            include_switch_crash=False,
            include_controller_failover=False,
            protect_hosts=controllers,
        )
        # The crash and the failover FaultSchedule.random would append,
        # except that the crashed switch is always an aggregation switch:
        # an edge crash cuts its hosts off and does a fifth less work,
        # which made wall_s bimodal across seeds.
        spacing = 0.04
        crashed = self.rng.choice(sorted(
            sw for sw in topology.switches if sw.startswith("agg")
        ))
        t = schedule.horizon + spacing
        schedule.switch_crash(t, crashed, restart_after=2.5 * spacing)
        schedule.controller_failover(t + 5 * spacing)
        self.fabric = build_chaos_fabric(
            topology, seed=self.seed, controller_hosts=controllers
        )
        self.runner = ChaosRunner(
            self.fabric, schedule, traffic_seed=self.rng.randrange(2**31)
        )
        self.before = _fabric_totals(self.fabric)

    def run(self) -> None:
        self.report = self.runner.run()

    def check(self) -> Dict[str, Any]:
        report = self.report
        pairs = report.reconnected_pairs + len(report.failed_pairs)
        counters = _fabric_counters(_fabric_totals(self.fabric), self.before)
        store = self.fabric.plane.store
        counters.update({
            "faultinject.runner.faults": len(report.applied),
            "faultinject.runner.invariant_checks": report.checks_run,
            "consensus.store.commits": _commits(store),
            "consensus.store.drops": store.total_drops(),
        })
        sim = {
            "sim.duration_s": self.fabric.loop.now,
            "sim.quiesce_s": report.quiesce_time,
        }
        return {
            # Packets lost while a link is down or a loss burst runs are the
            # injected faults working, not failures: they are part of the
            # exact simulated record (``detail``), not of ``failed``.
            "attempted": pairs + report.checks_run,
            "failed": len(report.failed_pairs) + len(report.violations),
            "work": report.events_run,
            "sim": sim,
            "detail": digest([
                report.timeline_digest(), report.traffic_sent,
                report.traffic_delivered, report.reconnected_pairs,
            ]),
            "counters": counters,
        }


# ----------------------------------------------------------------------
# 5. control_storm


class ControlStorm(Case):
    name = "control_storm"
    why = ("sharded control plane alone, no emulator: local and cross-pod "
           "queries, quorum commits and link-flap invalidation in one mix")
    work_unit = "ops"

    #: a benchmark-generated link goes down every FLAP_EVERY storm events
    #: and comes back half a period later
    FLAP_EVERY = 400
    #: every SAMPLE_EVERY-th answer is re-derived on the full view
    SAMPLE_EVERY = 40

    def _topology(self):
        from repro.topology import fat_tree

        return fat_tree(8, hosts_per_edge=2, num_ports=16)

    def setup(self) -> None:
        from repro.core.pathshard import ShardedPathService
        from repro.workloads import path_query_storm

        self.view = self._topology()
        self.service = ShardedPathService(self.view, seed=self.seed)
        storm = path_query_storm(
            self.view,
            self.service.pod_map.pod_of,
            duration_s=1.0 * self.scale,
            query_rate_per_s=14000.0,
            join_rate_per_s=200.0,
            locality=0.6,
            seed=self.rng.randrange(2**31),
        )
        cables = sorted(
            (l.a.switch, l.a.port, l.b.switch, l.b.port) for l in self.view.links
        )
        self.ops: List[Tuple[str, Tuple]] = []
        down: Optional[Tuple] = None
        for index, event in enumerate(storm):
            phase = index % self.FLAP_EVERY
            if phase == self.FLAP_EVERY // 2 and down is None:
                down = self.rng.choice(cables)
                self.ops.append(("link-down", down))
            elif phase == 0 and down is not None:
                self.ops.append(("link-up", down))
                down = None
            self.ops.append((event.kind, event.args))
        if down is not None:
            self.ops.append(("link-up", down))

    @staticmethod
    def _apply_to_view(view: Any, kind: str, args: Tuple) -> None:
        """The view edit ``Controller`` makes before logging the change."""
        if kind == "host-join":
            view.add_host(*args)
        elif kind == "link-down":
            view.remove_link(*args)
        else:
            view.add_link(*args)

    def run(self) -> None:
        view, service = self.view, self.service
        clock = time.perf_counter
        self.answers: List[Any] = []
        self.latencies: List[float] = []
        self.errors = 0
        for kind, args in self.ops:
            try:
                if kind == "query":
                    t0 = clock()
                    graph = service.path_graph(
                        args[0], args[1], PATH_GRAPH_S, PATH_GRAPH_EPSILON
                    )
                    self.latencies.append(clock() - t0)
                    self.answers.append(graph)
                else:
                    self._apply_to_view(view, kind, args)
                    service.note_topology_change(
                        "host-up" if kind == "host-join" else kind, args
                    )
            except Exception:  # the storm must drain; the op counts as failed
                self.errors += 1
                if kind == "query":
                    self.answers.append(None)

    def check(self) -> Dict[str, Any]:
        from repro.core.pathservice import PathService
        from repro.workloads import quantile

        service = self.service
        failed = self.errors
        # One cable down at a time never disconnects a fat-tree.
        failed += sum(1 for graph in self.answers if graph is None)
        # Replay the edits on a fresh copy to re-derive sampled answers on
        # the full view as it stood when each was served.
        reference = PathService(capacity=service.capacity, seed=self.seed)
        replica = self._topology()
        query = 0
        for kind, args in self.ops:
            if kind != "query":
                self._apply_to_view(replica, kind, args)
                continue
            if query % self.SAMPLE_EVERY == 0 and self.answers[query] is not None:
                fresh = reference.build_fresh(
                    replica, args[0], args[1], PATH_GRAPH_S, PATH_GRAPH_EPSILON
                )
                failed += self.answers[query] != fresh
            query += 1
        drops = commits = changes = 0
        stats = [service.global_service.stats]
        for pod, shard in sorted(service.shards.items()):
            leader = shard.view
            diverged = not service.pod_map.subview(self.view, pod).same_wiring(leader)
            for name in shard.replica_names:
                diverged |= not shard.store.view_of(name).same_wiring(leader)
            failed += diverged
            drops += shard.store.total_drops()
            changes += shard.changes_applied
            commits += _commits(shard.store)
            stats.append(shard.service.stats)
        failed += drops
        lookups = sum(s.hits + s.misses for s in stats)
        latencies = sorted(self.latencies)
        counters = {
            "core.pathservice.lookups": lookups,
            "core.pathservice.hit_share": _share(sum(s.hits for s in stats), lookups),
            "core.pathservice.tree_builds": sum(s.tree_builds for s in stats),
            "core.pathservice.link_evictions": sum(s.link_evictions for s in stats),
            "core.pathservice.query_us_p50": quantile(latencies, 0.50) * 1e6,
            "core.pathservice.query_us_p99": quantile(latencies, 0.99) * 1e6,
            "core.pathgraph.builds": sum(s.misses for s in stats),
            "core.pathshard.global_share": _share(service.global_queries, len(self.answers)),
            "core.pathshard.changes": changes,
            "consensus.store.commits": commits,
            "consensus.store.drops": drops,
        }
        return {
            "attempted": len(self.ops),
            "failed": min(failed, len(self.ops)),
            "work": len(self.ops),
            "sim": {},
            "detail": digest([
                None if graph is None else graph.edges for graph in self.answers
            ]),
            "counters": counters,
        }


# ----------------------------------------------------------------------
# 6 + 7. run_scenario cells


class _ScenarioCase(Case):
    def scenario(self) -> Any:
        raise NotImplementedError

    def setup(self) -> None:
        from repro.workloads import scenario as scenario_module

        # Looked up on the module at call time, so a --trace shim on
        # ``run_scenario`` is what runs.
        self.module = scenario_module
        self.cell = self.scenario()

    def run(self) -> None:
        self.outcome = self.module.run_scenario(self.cell, on_stall="record")

    def check(self) -> Dict[str, Any]:
        outcome = self.outcome
        flows = outcome.result.flows
        failed = sum(
            1 for f in flows
            if not f.done or f.remaining_bits > f.size_bits * 1e-9
        )
        total = outcome.program.total_bits
        if failed == 0 and abs(outcome.result.delivered_bits - total) > total * 1e-9:
            failed = 1  # every flow "done" yet bits not conserved
        cell = outcome.cell()
        report = outcome.sim.report().as_dict()
        counters = {
            "flowsim.maxmin.solves": report["recomputes"],
            "flowsim.simulator.epochs": report["epochs"],
            "flowsim.simulator.recompute_skips": report["recompute_skips"],
            "workloads.api.flows": len(flows),
        }
        region = report.get("packet_region")
        if region is not None:
            counters.update({
                "netsim.events.events": region["events_run"],
                "hybrid.packet_region.events": region["events_run"],
                "hybrid.packet_region.frames": region["frames_delivered"],
                "hybrid.engine.couplings": report["boundary"]["couplings"],
                "hybrid.engine.consistency_max_rel_err":
                    report["boundary"]["consistency_max_rel_err"],
            })
        sim = {
            "sim.duration_s": cell["duration_s"],
            "sim.fct_p50_s": cell["fct_p50_s"],
            "sim.fct_p99_s": cell["fct_p99_s"],
            "sim.goodput_bps": cell["goodput_bps"],
        }
        return {
            "attempted": len(flows),
            "failed": failed,
            "work": region["events_run"] if region is not None else len(flows),
            "sim": sim,
            "detail": digest([(f.src, f.dst, f.size_bits, f.finished_at) for f in flows]),
            "counters": counters,
        }


class FluidWebsearch(_ScenarioCase):
    name = "fluid_websearch"
    why = ("flow-level engine on a heavy-tailed trace: max-min solves, k-paths "
           "and the fluid loop do all the work and no packet exists")
    work_unit = "flows"

    LOAD_BPS = 50e9
    DURATION_S = 0.3
    BLOCKS = 24

    def trace(self, hosts: Sequence[str]) -> Any:
        """A websearch trace with its flow count and size histogram fixed.

        Drawn freely (``TraceReplay``), a run of ~800 heavy-tailed flows
        has a handful of elephants whose number and overlap set the
        concurrency, and the rows handed to the solver then vary by a
        fifth from seed to seed.  So the count is the Poisson mean, the
        sizes are the distribution's evenly spaced quantiles, each equal
        slot of the duration gets one arrival, and the seed decides the
        endpoints, where in its slot an arrival falls and which size it
        carries -- which leaves the solver's rows within a few percent.
        """
        from repro.workloads import FlowProgram, FlowSpec, WEB_SEARCH_CDF
        from repro.workloads import mean_flow_bits, sample_flow_bits

        duration = self.DURATION_S * self.scale
        count = max(8, int(round(self.LOAD_BPS / mean_flow_bits(WEB_SEARCH_CDF) * duration)))
        sizes = [
            sample_flow_bits(_Quantile((i + 0.5) / count), WEB_SEARCH_CDF)
            for i in range(count)
        ]
        # Deal the quantiles round-robin into blocks of consecutive
        # arrivals, so every stretch of the trace carries the same mix.
        blocks = [sizes[b::self.BLOCKS] for b in range(self.BLOCKS)]
        for block in blocks:
            self.rng.shuffle(block)
        sizes = [size for block in blocks for size in block]
        starts = [(i + self.rng.random()) * duration / count for i in range(count)]
        flows = []
        for index, (start, size) in enumerate(zip(starts, sizes)):
            src, dst = self.rng.sample(list(hosts), 2)
            flows.append(FlowSpec(start, src, dst, size, tag=("flow", index)))
        return FlowProgram.open_loop(flows, name="websearch")

    def scenario(self) -> Any:
        from repro.topology import fat_tree
        from repro.workloads import Scenario, Workload

        topology = fat_tree(8, num_ports=64)
        program = self.trace(topology.hosts)

        class Generated(Workload):
            """Hands ``run_scenario`` the program generated above."""

            name = "websearch"

            def program(self, _topology, *, rng):
                return program

        return Scenario(
            Generated(),
            te="flowlet",
            engine="fluid",
            topology=topology,
            link_bps=2.5e9,
            seed=self.seed,
        )


class _Quantile:
    """Stands in for an rng so ``sample_flow_bits`` inverts one quantile."""

    def __init__(self, u: float) -> None:
        self.u = u

    def random(self) -> float:
        return self.u


class PacketIncast(_ScenarioCase):
    name = "packet_incast"
    why = ("same scenario surface at packet fidelity (hybrid, roi=all): frame "
           "trains, channels and epoch coupling work while max-min idles")
    work_unit = "events"

    def scenario(self) -> Any:
        from repro.hybrid import RegionOfInterest
        from repro.topology import leaf_spine
        from repro.workloads import IncastSweep, Scenario

        # Spelled hybrid + roi=all, not engine="packet": that is the name
        # that survives once "packet" stops meaning two things.
        return Scenario(
            IncastSweep(
                fanins=(4, 8, 16),
                bits_per_sender=40e6,
                rounds_per_fanin=self.scaled(12),
            ),
            te="ecmp",
            engine="hybrid",
            roi=RegionOfInterest.all(),
            topology=leaf_spine(2, 2, 10),
            link_bps=2.5e9,
            seed=self.rng.randrange(2**31),
        )


CASES: Dict[str, type] = {
    case.name: case
    for case in (
        BootstrapDiscovery,
        NativeColdstart,
        NativeWarm,
        ChaosFailover,
        ControlStorm,
        FluidWebsearch,
        PacketIncast,
    )
}
