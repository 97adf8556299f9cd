"""Deterministic fault injection and chaos tooling.

Three layers:

- :mod:`repro.faults.plan` — a seedable, fully pre-drawn schedule of
  channel impairments, device faults, and gateway outages
  (:class:`FaultPlan`); same seed, same schedule, bit for bit.
- :mod:`repro.faults.inject` — binds a plan to a live simulation
  through the existing event engine (:class:`FaultInjector`) and counts
  scheduled-vs-fired events for the conservation audit
  (:class:`FaultStats`).
- :mod:`repro.faults.recovery` — the gateway-driven graceful
  degradation policy (:class:`AdaptiveRedundancyController`).
- :mod:`repro.faults.service` — seeded, declarative gateway-level
  fault schedules (:class:`ServiceFaultPlan`) for the federation
  chaos suite; mechanics live in :mod:`repro.service.federation`.

Host-level chaos lives with the executors it hardens: a killed pool
worker is the fault seam of :mod:`repro.experiments.runner`
(``injected`` arms a kill plan, ``fault_point`` fires it), which the
fleet's shards and the gateway's decode batches each reach once, and
shard checkpoint/resume is :mod:`repro.fleet.shards`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".inject": ("FaultInjectionError", "FaultInjector", "FaultStats"),
    ".plan": (
        "DeviceFault", "FaultConfig", "FaultPlan", "FaultPlanError",
        "GatewayOutage", "InterfererBurst", "LossBurst", "SnrDegradation",
        "build_fault_plan", "stable_uniform",
    ),
    ".recovery": (
        "AdaptiveRedundancyController", "RecoveryAction", "RecoveryError",
        "RecoveryStats",
    ),
    ".service": (
        "SERVICE_FAULT_SCENARIOS", "ServiceFault", "ServiceFaultPlan",
        "build_service_fault_plan",
    ),
})
