"""Chaos oracles: a killed worker or gateway changes no aggregate.

Wi-LE beacons reach any receiver in range with no association, so the
receive side must lose none of them when part of it dies. Each oracle
runs one workload clean, then again under a seeded fault, and requires
the faulted run to end bit-identical to the clean one:

* **chaos-fleet-worker-kill** — a sharded fleet whose pool worker is
  SIGKILLed on one shard resumes from the shard checkpoints to the
  clean run's counters and moments, with a clean accounting audit;
* **chaos-service-worker-kill** — a gateway whose decode worker is
  SIGKILLed mid-stream rescues the batch and folds the clean run's
  per-tenant state;
* **chaos-federation-<scenario>** — every gateway-level fault of
  :data:`repro.faults.service.SERVICE_FAULT_SCENARIOS`, at 3 and at 4
  supervised gateways, fails over to a peer and ends with the one-pass
  fold's state, the decoder's frame counts and a clean federation
  audit (which recomputes every failover delay through the seeded
  backoff ladder).

A worker kill fires only inside a pool worker
(:func:`repro.experiments.runner.fault_point`), so a run that never
reached the pool fails its oracle with "no worker was killed" instead
of passing vacuously. Every oracle here is full-only.

Run with ``python -m repro.check --full --only chaos``.
"""

from __future__ import annotations

import asyncio
import functools
import tempfile

from ..experiments.runner import injected
from ..faults.service import SERVICE_FAULT_SCENARIOS
from . import Deviation, oracle
from .federation import _fold


def _findings(audit) -> list[str]:
    return [f"[{finding.invariant}] {finding.subject}: {finding.message}"
            for finding in audit.findings]


def _verdict(problems: list[str], detail: str) -> Deviation:
    return Deviation(max_deviation=float(len(problems)), tolerance=0.0,
                     unit="mismatches",
                     detail="; ".join([detail] + problems))


@oracle("chaos-fleet-worker-kill", "differential",
        "a pool worker SIGKILLed on shard 2 of 4: the checkpointed retry "
        "ends with the clean run's counters and moments, audit clean",
        smoke=False)
def check_fleet_worker_kill() -> Deviation:
    from ..fleet.aggregate import counters_equal, moments_close
    from ..fleet.population import FleetConfig, generate_fleet
    from ..fleet.shards import run_sharded_fleet
    from ..obs import METRICS, audit_fleet
    plan = generate_fleet(FleetConfig(
        device_count=80, area_m=(160.0, 40.0), interval_s=5.0,
        duration_s=20.0, seed=0))
    clean = run_sharded_fleet(plan, shard_count=4, workers=2)
    breaks = METRICS.counter("runner.pool_breaks").value
    with tempfile.TemporaryDirectory(prefix="check-chaos-") as directory, \
            injected({"fleet.shard": 2}):
        recovered = run_sharded_fleet(plan, shard_count=4, workers=2,
                                      checkpoint_dir=directory)
    where = "80 devices, 4 shards on 2 workers, kill on shard 2"
    if METRICS.counter("runner.pool_breaks").value == breaks:
        return _verdict(["no worker was killed"], where)
    return _verdict(counters_equal(clean, recovered)
                    + moments_close(clean, recovered, rel_tol=1e-9)
                    + _findings(audit_fleet(recovered)), where)


async def _ingest(wires, config):
    from ..service import GatewayService, replay
    service = GatewayService(config)
    await service.start()
    await replay(service, wires)
    await service.stop()
    return service


@oracle("chaos-service-worker-kill", "differential",
        "a decode worker SIGKILLed mid-stream: the rescued batch leaves "
        "per-tenant state bit-identical to the clean run", smoke=False)
def check_service_worker_kill() -> Deviation:
    from ..service import (BackpressurePolicy, ServiceConfig,
                           generate_stream, tenant_state_digest)
    wires = generate_stream(40_000, device_count=64, seed=0,
                            corrupt_fraction=0.002)
    config = ServiceConfig(policy=BackpressurePolicy.BLOCK, workers=1,
                           metrics_interval_s=0.0)
    clean = asyncio.run(_ingest(wires, config))
    kill_batch = clean.stats().batches_merged // 2
    with injected({"service.batch": kill_batch}):
        chaos = asyncio.run(_ingest(wires, config))
    rescued = chaos.stats().rescued_batches
    where = f"{len(wires)} frames, kill on batch {kill_batch}"
    if rescued == 0:
        return _verdict(["no worker was killed"], where)
    problems = []
    if tenant_state_digest(chaos.tenants) != tenant_state_digest(
            clean.tenants):
        problems.append("aggregates differ from the clean run")
    return _verdict(problems, f"{where}, {rescued} batch(es) rescued")


@functools.cache
def _federation_reference(gateways: int):
    """The stream a ``gateways``-wide federation ingests, its one-pass
    fold's digest and the decoder's ``(ingested, decode_errors)``."""
    from ..service import decode_wires, generate_stream, tenant_state_digest
    wires = generate_stream(20_000, device_count=64,
                            tenant_count=2 * gateways, seed=0,
                            corrupt_fraction=0.002)
    payloads, errors = decode_wires(wires)
    return wires, tenant_state_digest(_fold(wires)), (len(payloads), errors)


def federation_fault(scenario: str) -> Deviation:
    """One fault scenario through a supervised federation of 3 and of 4
    gateways; each run must match the one-pass fold."""
    from ..faults.service import build_service_fault_plan
    from ..obs import audit_federation
    from ..service import FederationConfig, run_federated
    problems = []
    counts = []
    for gateways in (3, 4):
        wires, digest, expected = _federation_reference(gateways)
        plan = build_service_fault_plan(
            scenario, seed=0, gateway_count=gateways,
            frames_hint=len(wires) // gateways)
        with tempfile.TemporaryDirectory(
                prefix=f"check-chaos-{scenario}-") as root:
            report = run_federated(wires, FederationConfig(
                gateways=gateways, checkpoint_root=root, seed=0,
                # Fast cadence, so kills land on a non-empty watermark.
                checkpoint_interval_s=0.03, durable_checkpoints=False),
                fault_plan=plan)
        counts.append(f"{gateways} gateways: failovers={report.failovers} "
                      f"restarts={report.restarts} "
                      f"deduped={report.deduped}")
        found = []
        if report.digest() != digest:
            found.append("aggregates differ from the one-pass fold")
        if (report.ingested, report.decode_errors) != expected:
            found.append(f"(ingested, decode errors) = "
                         f"{(report.ingested, report.decode_errors)}, "
                         f"decoder counts {expected}")
        if report.failovers < 1:
            found.append("fault never triggered a failover")
        if report.restarts != report.failovers:
            found.append(f"restarts {report.restarts} != failovers "
                         f"{report.failovers}")
        found += _findings(audit_federation(report,
                                            expected_frames=len(wires)))
        problems += [f"{gateways} gateways: {problem}" for problem in found]
    return _verdict(problems, ", ".join(counts))


for _scenario in SERVICE_FAULT_SCENARIOS:
    oracle(f"chaos-federation-{_scenario}", "differential",
           f"{_scenario} through a supervised federation of 3 and of 4 "
           "gateways: failover ends bit-identical to the one-pass fold, "
           "frames conserved, backoff on the seeded ladder",
           smoke=False)(functools.partial(federation_fault, _scenario))
