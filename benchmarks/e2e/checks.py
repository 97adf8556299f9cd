"""Output checks for the end-to-end benchmark.

Two kinds, both applied to every repetition:

* **goldens** (``goldens.json``) — exact outputs for the golden seed:
  the sha256 of each section of the driver's stdout, the integer
  counters of both fleets, and the gateway's tenant-state digest with
  its ingested/decode-error counts. Driver sections that do not depend
  on the seed are checked against their golden for every seed.
* **oracles** — properties that hold for any seed: the gateway's
  digest equals a sequential fold of the same stream done here
  (:func:`reference_fold`), every frame is accounted for, none is
  dropped and the final durable checkpoint restores the same state;
  each fleet aggregate passes ``audit_fleet`` and conserves
  ``delivered + lost + out_of_range == sent``. The harness also
  requires repetitions of one seed to produce identical outputs.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import json
import os
from time import perf_counter

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "goldens.json")

FLEET_COUNTERS = (
    "device_count", "receiver_count", "shard_count", "wakes",
    "beacons_sent", "beacons_in_flight", "uplink_delivered",
    "uplink_lost_collision", "uplink_lost_snr", "uplink_out_of_range",
    "pair_delivered", "pair_lost_collision", "pair_lost_snr")

#: Driver sections whose output is the same for every --seed.
SEED_FREE_DRIVER_SECTIONS = ("quick", "contention", "reliability")


def load_goldens(path: str = GOLDENS_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def fleet_counters(state: dict) -> dict:
    """The exact integer part of a ``FleetAggregate.to_state()``."""
    counters = {name: state[name] for name in FLEET_COUNTERS}
    histogram = state["current_histogram"]
    counters["current_histogram"] = (list(histogram["counts"])
                                     + [histogram["underflow"],
                                        histogram["overflow"]])
    return counters


def audit_fleet_state(state: dict, subject: str) -> list[str]:
    """``audit_fleet`` plus the explicit uplink conservation identity."""
    from repro.fleet.aggregate import FleetAggregate
    from repro.obs import audit_fleet
    aggregate = FleetAggregate.from_state(state)
    problems = [f"{subject}: audit {finding.invariant}: {finding.message}"
                for finding in audit_fleet(aggregate, subject).findings]
    decided = (aggregate.uplink_delivered + aggregate.uplink_lost_collision
               + aggregate.uplink_lost_snr + aggregate.uplink_out_of_range)
    if decided != aggregate.beacons_sent:
        problems.append(f"{subject}: delivered + lost + out_of_range = "
                        f"{decided} != sent {aggregate.beacons_sent}")
    return problems


def check_driver(outputs: dict, seed: int, goldens: dict) -> list[str]:
    problems = []
    if outputs["exit_code"] != 0:
        problems.append(f"paper-driver: driver exited {outputs['exit_code']}")
    golden = goldens["paper-driver"]
    for section, digest in sorted(outputs["sha256"].items()):
        if section in SEED_FREE_DRIVER_SECTIONS or seed == goldens["seed"]:
            if digest != golden[section]:
                problems.append(f"paper-driver: {section} stdout sha256 "
                                f"{digest} != golden {golden[section]}")
    for index, state in enumerate(outputs["fleet_states"]):
        problems += audit_fleet_state(state,
                                      f"paper-driver fleet_scale[{index}]")
    return problems


def check_fleet(workload: str, outputs: dict, seed: int, goldens: dict,
                device_count: int, shards: int) -> list[str]:
    state = outputs["state"]
    problems = audit_fleet_state(state, workload)
    if state["device_count"] != device_count:
        problems.append(f"{workload}: {state['device_count']} devices, "
                        f"expected {device_count}")
    if state["shard_count"] != shards:
        problems.append(f"{workload}: {state['shard_count']} shards merged, "
                        f"expected {shards}")
    if seed == goldens["seed"]:
        counters = fleet_counters(state)
        golden = goldens[workload]["counters"]
        for name in sorted(golden):
            if counters.get(name) != golden[name]:
                problems.append(f"{workload}: {name} = {counters.get(name)} "
                                f"!= golden {golden[name]}")
    return problems


def check_gateway(outputs: dict, seed: int, goldens: dict,
                  reference: dict[int, dict]) -> list[str]:
    """``outputs`` maps a phase to the outputs of each service run in
    it; ``reference`` maps a stream prefix length to the sequential
    fold's ``{"digest", "ingested", "decode_errors"}`` over it."""
    problems = []
    for phase, results in sorted(outputs.items()):
        for index, result in enumerate(results):
            problems += _check_service(f"gateway-ingest {phase}[{index}]",
                                       result, reference)
    if seed == goldens["seed"]:
        golden = goldens["gateway-ingest"]
        for index, result in enumerate(outputs["soak"]):
            for key in ("digest", "ingested", "decode_errors"):
                if result[key] != golden[key]:
                    problems.append(f"gateway-ingest soak[{index}]: {key} "
                                    f"{result[key]} != golden {golden[key]}")
    return problems


def _check_service(subject: str, result: dict,
                   reference: dict[int, dict]) -> list[str]:
    problems = []
    frames = result["frames"]
    accounted = result["ingested"] + result["decode_errors"]
    if accounted != frames:
        problems.append(f"{subject}: {accounted} of {frames} frames "
                        f"accounted for")
    if result["dropped"]:
        problems.append(f"{subject}: {result['dropped']} frames dropped")
    expected = reference[frames]
    restored = result["restored"] or {}
    for key in ("digest", "ingested", "decode_errors"):
        if result[key] != expected[key]:
            problems.append(f"{subject}: {key} {result[key]} != "
                            f"sequential reference fold {expected[key]}")
        if restored.get(key) != result[key]:
            problems.append(f"{subject}: final checkpoint restores {key} "
                            f"{restored.get(key)}, not {result[key]}")
    return problems


def reference_fold(wires: list[bytes], marks: tuple[int, ...],
                   tenant_bits: int = 16) -> dict[int, dict]:
    """Single-threaded ``extract_payload`` + ``TenantAggregate.observe``
    over ``wires`` — no queue, no batching, no event loop.

    Returns, per prefix length in ``marks``, the digest and counts after
    it and ``fold_s``, the seconds spent folding it (digests excluded).
    """
    import struct

    from repro.service.federation import tenant_state_digest
    from repro.service.ingest import IngestError, extract_payload
    from repro.service.tenants import TenantAggregate
    tenants: dict[int, TenantAggregate] = {}
    errors = 0
    results: dict[int, dict] = {}
    folding_s = 0.0
    position = 0
    for mark in sorted(marks):
        started = perf_counter()
        for wire in wires[position:mark]:
            try:
                payload = extract_payload(wire)
            except (IngestError, struct.error):
                errors += 1
                continue
            tenant_id = payload.device_id >> tenant_bits
            aggregate = tenants.get(tenant_id)
            if aggregate is None:
                aggregate = tenants[tenant_id] = TenantAggregate(
                    tenant_id=tenant_id)
            aggregate.observe(payload)
        folding_s += perf_counter() - started
        position = mark
        results[mark] = {"digest": tenant_state_digest(tenants),
                         "ingested": mark - errors, "decode_errors": errors,
                         "fold_s": folding_s}
    return results
