"""Deterministic, seeded fault injection for emulated DumbNet fabrics.

The paper's headline failure-handling claims (Section 4.2, Figure 11)
are only worth reproducing if the failure path is *provably* correct,
so this package turns ad-hoc "cut a link and see" testing into a
first-class subsystem:

* :class:`FaultSchedule` -- a small DSL for scripted fault timelines
  (link flaps, loss/delay/duplication bursts, switch crash+restart,
  host partition, controller failover) plus a seeded randomized
  generator that produces the same timeline byte-for-byte for the
  same seed.
* :class:`ChaosRunner` -- executes a schedule against a live fabric
  while continuously checking invariants (loop-free cached paths,
  cache/dead-port coherence) and, at quiesce, that every cached path
  avoids dead links and every physically-connected host pair can still
  exchange traffic.
* :func:`build_chaos_fabric` -- a blueprint-bootstrapped
  :class:`~repro.core.fabric.DumbNetFabric` with standby controllers,
  so schedules can exercise controller failover via its
  :class:`~repro.core.replication.ReplicatedControlPlane`.

``examples/chaos_testing.py`` runs the seeded demo (in CI) and asserts
run-to-run determinism.
"""

from .. import _lazy_namespace

__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    ".schedule": ("FaultEvent", "FaultSchedule", "ScheduleError"),
    ".runner": ("ChaosReport", "ChaosRunner", "build_chaos_fabric"),
    ".invariants": (
        "Violation",
        "check_loop_free",
        "check_cache_coherence",
        "check_structural",
        "continuous_invariants",
        "down_ports",
        "residual_topology",
    ),
})
