"""Unified observability for the DumbNet reproduction.

One subsystem, three layers, over the one event record every fabric
already keeps (:class:`repro.netsim.trace.Tracer`):

* :mod:`repro.obs.metrics` -- log-bucketed histograms (p50/p95/p99)
  and :class:`Span` timing contexts, all clocked by the *simulated*
  clock;
* :mod:`repro.obs.export` -- JSON, Prometheus text exposition, and
  CLI-table renderers (plus a strict exposition validator for CI);
* :mod:`repro.obs.report` -- the common ``as_dict/to_json/summary``
  protocol every fabric report now speaks.

Entry point: build a fabric with ``DumbNetFabric(..., obs=True)`` and
call ``fabric.observe()`` for an :class:`Observation` snapshot.  A
fabric built without ``obs`` pays zero overhead beyond dormant
``is not None`` gates, and ``observe()`` still works there (it returns
the sampled counters and the event record, just without live
histograms).

``python -m repro.obs.smoke`` is the CI gate.
"""

from .. import _lazy_namespace

__getattr__, __dir__, __all__ = _lazy_namespace(__name__, {
    ".metrics": ("Histogram", "MetricsRegistry", "Span"),
    ".fabric": ("FabricObs", "Observation", "observe_fabric"),
    ".report": ("ReportBase",),
    ".export": ("parse_prometheus", "to_prometheus"),
})
