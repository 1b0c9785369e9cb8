"""Observability for the DumbNet reproduction: one snapshot.

* :mod:`repro.obs.metrics` -- the log-bucketed :class:`Histogram`
  (p50/p95/p99) live instruments record simulated durations into;
* :mod:`repro.obs.fabric` -- the :class:`FabricObs` hub of five such
  histograms and :func:`observe_fabric`, which reads the fabric's
  counters, its :class:`~repro.netsim.trace.Tracer` event record and
  the hub into one dict;
* :mod:`repro.obs.report` -- the common ``as_dict/to_json/summary``
  protocol every fabric report speaks.

Entry point: build a fabric with ``DumbNetFabric(..., obs=True)`` and
call ``fabric.observe()`` for an :class:`Observation` snapshot, rendered
by ``to_json()`` or ``summary()``.  A fabric built without ``obs`` pays
zero overhead beyond dormant ``is not None`` gates, and ``observe()``
still works there (it returns the sampled counters and the event
record, with ``metrics`` set to ``None``).
"""

from .. import _lazy_namespace

__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    ".metrics": ("Histogram",),
    ".fabric": ("FabricObs", "Observation", "observe_fabric"),
    ".report": ("ReportBase",),
})
