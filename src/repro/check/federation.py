"""Federation oracles: partition/merge exactness, failover, backoff.

The family pins the load-bearing claims of
:mod:`repro.service.federation`:

* the **merge-ordering contract**: folding per-partition tenant
  aggregates with :func:`merge_federated` is *bit-identical* to one
  gateway observing the whole stream — the metamorphic heart of the
  design (per-tenant partitioning + sequential observation);
* the live **coordinator** reproduces that identity with real queues,
  checkpoints and supervision in the loop (the faulted runs are the
  ``chaos-federation-*`` oracles of :mod:`repro.check.chaos`);
* the **backoff ladder** is a pure function of ``(seed, slot,
  attempt)`` — golden values pinned, jitter bounded, ceiling exact.

Run with ``python -m repro.check --only federation``.
"""

from __future__ import annotations

import tempfile

from . import Deviation, oracle

#: backoff_schedule(seed=7, gateway_index=0, attempts=6) — blake2b
#: draws, exact by construction on every platform; any drift means the
#: stream name, key layout or ladder arithmetic changed.
_BACKOFF_GOLDEN = (
    0.06194170538939804,
    0.08183803148799312,
    0.26539524478247145,
    0.45326733351275517,
    0.9552116153533089,
    0.9325237691220485,
)


def _stream():
    from ..service import generate_stream
    return generate_stream(6000, device_count=96, tenant_count=6,
                           seed=77, corrupt_fraction=0.002)


def _fold(wires) -> dict:
    """Decode ``wires`` and observe every payload in stream order into
    per-tenant aggregates: one pass, no service."""
    from ..service.ingest import decode_wires
    from ..service.tenants import TenantAggregate, tenant_of
    payloads, _ = decode_wires(wires)
    tenants: dict[int, TenantAggregate] = {}
    for payload in payloads:
        tenant_id = tenant_of(payload.device_id)
        aggregate = tenants.get(tenant_id)
        if aggregate is None:
            aggregate = tenants[tenant_id] = TenantAggregate(
                tenant_id=tenant_id)
        aggregate.observe(payload)
    return tenants


def _single_gateway_states(wires) -> dict[int, dict]:
    """Reference fold: one pass, sequential observe, no service."""
    return {tenant_id: aggregate.to_state()
            for tenant_id, aggregate in _fold(wires).items()}


@oracle("federation-backoff-ladder", "analytic",
        "seeded restart backoff reproduces pinned goldens, bounded "
        "jitter, exact ceiling")
def _backoff_ladder() -> Deviation:
    from ..service.federation import backoff_delay, backoff_schedule
    mismatches = 0
    details = []
    schedule = backoff_schedule(7, 0, len(_BACKOFF_GOLDEN))
    if schedule != _BACKOFF_GOLDEN:
        mismatches += 1
        details.append(f"golden schedule drifted: {schedule}")
    # Jitter stays in [0.5x, 1.5x) of the undamped exponential and the
    # ceiling clamps exactly.
    for seed in (0, 7, 42):
        for slot in range(3):
            for attempt in range(1, 9):
                delay = backoff_delay(seed, slot, attempt)
                raw = 0.05 * 2.0 ** (attempt - 1)
                if delay > 2.0 or (delay < min(0.5 * raw, 2.0)
                                   or (delay >= 1.5 * raw
                                       and delay != 2.0)):
                    mismatches += 1
                    details.append(
                        f"delay({seed},{slot},{attempt})={delay!r} "
                        f"outside [{0.5 * raw}, {1.5 * raw}) cap 2.0")
    if backoff_delay(42, 1, 8) != 2.0:
        mismatches += 1
        details.append("deep-attempt delay did not clamp to max_s")
    return Deviation(max_deviation=float(mismatches), tolerance=0.0,
                     unit="mismatches", detail="; ".join(details[:3]))


@oracle("federation-merge-split", "metamorphic",
        "per-tenant partition + merge_federated == one sequential fold, "
        "bit for bit")
def _merge_split() -> Deviation:
    from ..service.federation import merge_federated, partition_stream
    wires = _stream()
    reference = _single_gateway_states(wires)
    mismatches = 0
    details = []
    for gateways in (1, 2, 3, 5):
        merged = merge_federated([_fold(part_wires) for part_wires
                                  in partition_stream(wires, gateways)])
        states = {tenant_id: aggregate.to_state()
                  for tenant_id, aggregate in merged.items()}
        if states != reference:
            mismatches += 1
            details.append(f"{gateways}-way split diverged")
    return Deviation(max_deviation=float(mismatches), tolerance=0.0,
                     unit="mismatches", detail="; ".join(details))


@oracle("federation-vs-single", "differential",
        "unfaulted 3-gateway federation ends bit-identical to one "
        "gateway over the same stream")
def _federation_vs_single() -> Deviation:
    from ..service.federation import (FederationConfig, run_federated,
                                      tenant_state_digest)
    wires = _stream()
    reference_digest = tenant_state_digest(_fold(wires))
    with tempfile.TemporaryDirectory(prefix="check-federation-") as root:
        report = run_federated(wires, FederationConfig(
            gateways=3, checkpoint_root=root, seed=7,
            durable_checkpoints=False))
    mismatches = 0 if report.digest() == reference_digest else 1
    return Deviation(
        max_deviation=float(mismatches), tolerance=0.0, unit="mismatches",
        detail=f"{report.ingested} payloads over 3 gateways")
