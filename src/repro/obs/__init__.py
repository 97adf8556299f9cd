"""Run-wide observability: metrics and invariant audits.

Two small, dependency-free layers that every other subsystem can hook
into without caring who (if anyone) is watching:

* :mod:`repro.obs.metrics` — a process-local registry of counters,
  gauges and histograms (:data:`METRICS` is the shared default);
* :mod:`repro.obs.audit` — invariant audits that cross-check every
  run's energy accounting (charge conservation, monotonic timelines,
  sampling consistency).

``python -m repro.experiments --metrics --audit`` is the user-facing
end: a metrics table plus JSONL artifact, and a hard failure if any
invariant breaks.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".audit": (
        "CHARGE_REL_TOL", "IDLE_LABELS", "AuditFinding", "AuditReport",
        "audit_all", "audit_faults", "audit_federation", "audit_fleet",
        "audit_harvest", "audit_mobility", "audit_scenario", "audit_trace",
    ),
    ".metrics": (
        "METRICS", "Counter", "Gauge", "Histogram", "MetricsError",
        "MetricsRegistry",
    ),
})
