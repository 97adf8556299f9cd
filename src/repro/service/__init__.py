"""Always-on gateway ingest service — the production-traffic path.

Everything else in this reproduction is batch: run a sweep, write
artifacts. This package is the long-lived receive side the paper's
pitch implies — Wi-LE beacons reach *any* nearby WiFi device with no
association, which only pays off if a gateway can ingest those beacon
payloads continuously at production rates (the shape IEEE 802.11ba WUR
deployments and batteryless RF-harvesting beacon networks both assume:
huge populations of tiny transmitters funneling into a few long-lived
aggregators).

The moving parts, one module each:

* :mod:`~repro.service.ingest` — wire-format beacon → payload
  extraction. A byte-offset fast path (differentially pinned against
  the full :mod:`repro.dot11` parser) that sustains >1M payloads/minute
  on a single core, plus the batch decode the process pool fans out
  over.
* :mod:`~repro.service.queues` — bounded asyncio queues with explicit
  backpressure policies (``drop-oldest`` vs ``block``), every drop and
  blocked put counted in :data:`repro.obs.metrics.METRICS`.
* :mod:`~repro.service.tenants` — per-tenant mergeable aggregation
  (:class:`~repro.experiments.statistics.StreamingSummary` moments,
  :class:`~repro.fleet.aggregate.MergeableHistogram` payload sizes,
  per-device sequence chains for loss/duplicate accounting).
* :mod:`~repro.service.checkpoint` — periodic, atomically written
  checkpoint generations with keep-N pruning, stored through
  :mod:`repro.store` like the fleet's shard checkpoints (exact JSON
  state, fsync'd atomic writes, a ``manifest.json`` fingerprint of the
  tenant split, corrupt files quarantined) with fallback past a
  corrupt newest generation.
* :mod:`~repro.service.server` — the :class:`GatewayService` asyncio
  orchestrator: ingest front-end, fan-out over the shared
  :class:`~repro.experiments.runner.ProcessPool` with broken-pool
  rescue, strictly ordered merges (so a chaos-killed worker changes
  nothing), live metrics, graceful SIGTERM drain.
* :mod:`~repro.service.replay` — deterministic recorded beacon streams
  and the paced replayer that drives benches, smokes and CI.
* :mod:`~repro.service.federation` — N supervised gateways over a
  per-tenant-partitioned stream: heartbeat death detection,
  checkpoint-resume failover with offset-chain tail dedupe, seeded
  exponential-backoff restarts, the cross-gateway
  :func:`~repro.service.federation.merge_federated` ordering contract,
  and the chaos mechanics behind :mod:`repro.check.chaos`.

``python -m repro.service --help`` runs all of it from the shell; see
``docs/SERVICE.md`` for the architecture discussion.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".checkpoint": ("ServiceCheckpointer",),
    ".federation": (
        "FederationConfig", "FederationCoordinator", "FederationError",
        "FederationEvent", "FederationReport", "backoff_delay",
        "backoff_schedule", "merge_federated", "partition_stream",
        "route_wire", "run_federated", "tenant_state_digest",
    ),
    ".ingest": (
        "BeaconPayload", "IngestError", "decode_wires", "extract_payload",
        "peek_device_id",
    ),
    ".queues": ("BackpressurePolicy", "BoundedPayloadQueue", "QueueClosed"),
    ".replay": ("generate_stream", "load_stream", "record_stream", "replay"),
    ".server": (
        "GatewayService", "ServiceConfig", "ServiceError", "ServiceStats",
    ),
    ".tenants": ("TenantAggregate", "tenant_of"),
})
