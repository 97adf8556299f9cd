"""Differential oracles: run both sides of every fast/reference pair.

Each oracle here executes a shipped fast path *and* its slower
reference twin on identical inputs and diffs the outputs to a stated
tolerance. These are the pairs PR 1's perf work introduced (T-table
AES vs the FIPS-197 byte-level reference, cached CCM contexts and
memoised PMKs vs fresh derivations), plus the structural equivalences
later PRs promised (sampled traces vs exact integrals, N-shard fleets
vs one shard, zero-intensity fault plans vs no plan, parallel sweeps
vs serial).
"""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np

from ..energy.trace import CurrentTrace
from ..experiments.fleet_scale import run_fleet_smoke
from ..experiments.statistics import replicate
from ..fleet.aggregate import counters_equal, moments_close
from ..fleet.kernel import KernelStats, run_shard_cohort
from ..fleet.population import (DEFAULT_MAX_RANGE_M, FLEET_DEVICE_ID_BASE,
                                FleetConfig, FleetPlan, generate_fleet)
from ..fleet.shards import HALO_M, ShardSpec, plan_shards, run_shard
from ..mobility import MobilityConfig
from ..security.aes import Aes
from ..security.ccm import CcmContext, ccm_decrypt, ccm_encrypt
from ..security.keys import derive_pmk, pmk_from_passphrase
from . import Deviation, oracle
from .analytic import _idle_access_delay

#: FIPS-197 appendix C known-answer vectors: (key, plaintext, ciphertext).
_FIPS197_VECTORS = (
    ("000102030405060708090a0b0c0d0e0f",
     "00112233445566778899aabbccddeeff",
     "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617",
     "00112233445566778899aabbccddeeff",
     "dda97ca4864cdfe06eaf70a0ec0d7191"),
    ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "00112233445566778899aabbccddeeff",
     "8ea2b7ca516745bfeafc49904b496089"),
)


@oracle("aes-ttable-vs-reference", "differential",
        "T-table AES agrees with the FIPS-197 byte-level reference "
        "(and both reproduce the appendix C vectors)")
def check_aes() -> Deviation:
    mismatches = 0
    trials = 0
    for key_hex, plain_hex, cipher_hex in _FIPS197_VECTORS:
        key = bytes.fromhex(key_hex)
        plaintext = bytes.fromhex(plain_hex)
        ciphertext = bytes.fromhex(cipher_hex)
        aes = Aes(key)
        for produced in (aes.encrypt_block(plaintext),
                         aes.encrypt_block_reference(plaintext)):
            trials += 1
            mismatches += produced != ciphertext
        for recovered in (aes.decrypt_block(ciphertext),
                          aes.decrypt_block_reference(ciphertext)):
            trials += 1
            mismatches += recovered != plaintext
    rng = random.Random(0x197)
    for _ in range(48):
        key = rng.randbytes(rng.choice((16, 24, 32)))
        block = rng.randbytes(16)
        aes = Aes(key)
        fast = aes.encrypt_block(block)
        trials += 2
        mismatches += fast != aes.encrypt_block_reference(block)
        mismatches += aes.decrypt_block(fast) != block
        mismatches += aes.decrypt_block_reference(fast) != block
    return Deviation(max_deviation=float(mismatches), tolerance=0.0,
                     unit="mismatches", detail=f"{trials} comparisons")


@oracle("ccm-cached-context-vs-fresh", "differential",
        "module-level CCM (cached contexts) matches a fresh CcmContext "
        "per operation, encrypt and decrypt")
def check_ccm() -> Deviation:
    rng = random.Random(0xCC)
    mismatches = 0
    trials = 0
    for _ in range(24):
        key = rng.randbytes(16)
        nonce = rng.randbytes(13)
        plaintext = rng.randbytes(rng.randrange(0, 64))
        aad = rng.randbytes(rng.randrange(0, 24))
        cached = ccm_encrypt(key, nonce, plaintext, aad)
        fresh = CcmContext(key).encrypt(nonce, plaintext, aad)
        trials += 2
        mismatches += cached != fresh
        mismatches += ccm_decrypt(key, nonce, fresh, aad) != plaintext
    return Deviation(max_deviation=float(mismatches), tolerance=0.0,
                     unit="mismatches", detail=f"{trials} comparisons")


@oracle("pmk-memoised-vs-direct", "differential",
        "memoised PMK lookups equal the raw PBKDF2 derivation")
def check_pmk() -> Deviation:
    mismatches = 0
    pairs = (("correct horse battery", b"wile-check"),
             ("hunter2hunter2", b"oracle-ssid"),
             ("correct horse battery", b"wile-check"))  # cache hit path
    for passphrase, ssid in pairs:
        mismatches += (pmk_from_passphrase(passphrase, ssid)
                       != derive_pmk(passphrase, ssid))
    return Deviation(max_deviation=float(mismatches), tolerance=0.0,
                     unit="mismatches", detail=f"{len(pairs)} derivations")


def _jagged_trace(seed: int, segments: int) -> CurrentTrace:
    """A gap-riddled piecewise-constant trace with seeded shape."""
    rng = random.Random(seed)
    trace = CurrentTrace()
    cursor = 0.0
    for index in range(segments):
        if rng.random() < 0.3:
            cursor += rng.uniform(1e-5, 2e-3)  # a gap (zero current)
        duration = rng.uniform(5e-5, 4e-3)
        trace.add_segment(cursor, duration, rng.uniform(1e-5, 0.3),
                          f"phase-{index % 5}")
        cursor += duration
    return trace


@oracle("trace-sample-vs-integral", "differential",
        "Riemann sum of the 50 kS/s sampled trace converges to the "
        "exact segment integral within the discretisation bound")
def check_trace_sampling() -> Deviation:
    rate_hz = 50_000.0
    step = 1.0 / rate_hz
    worst_excess = 0.0
    detail = []
    for seed, segments in ((1, 24), (2, 57)):
        trace = _jagged_trace(seed, segments)
        _times, currents = trace.sample(rate_hz)
        riemann = float(currents.sum()) * step
        exact = trace.charge_c()
        # Left-Riemann error for a piecewise-constant integrand is at
        # most one sample step of the peak current per discontinuity
        # (two per segment: its start and its end).
        bound = 2.0 * len(trace) * trace.peak_current_a() * step
        deviation = abs(riemann - exact)
        worst_excess = max(worst_excess, deviation / bound)
        detail.append(f"seed {seed}: |dev|={deviation:.3g} C "
                      f"bound={bound:.3g} C")
    return Deviation(max_deviation=worst_excess, tolerance=1.0,
                     unit="fraction of bound", detail="; ".join(detail))


#: Small fleet for the smoke-mode shard differential: big enough that
#: shard boundaries cut through radio neighbourhoods, small enough for
#: a sub-minute check.
_SMOKE_FLEET = FleetConfig(device_count=48, area_m=(90.0, 30.0),
                           interval_s=10.0, duration_s=30.0, seed=7)
_FULL_FLEET = FleetConfig(device_count=200, area_m=(160.0, 60.0),
                          interval_s=10.0, duration_s=60.0, seed=7)


def _shard_differential(config: FleetConfig, shard_count: int) -> Deviation:
    _, mismatches = run_fleet_smoke(
        device_count=config.device_count, shard_count=shard_count,
        area_m=config.area_m, interval_s=config.interval_s,
        duration_s=config.duration_s, seed=config.seed)
    return Deviation(
        max_deviation=float(len(mismatches)), tolerance=0.0,
        unit="mismatches",
        detail=(f"{config.device_count} devices, 1 vs {shard_count} shards"
                + (f"; {mismatches}" if mismatches else "")))


@oracle("fleet-shards-vs-single", "differential",
        "N-shard fleet simulation merges to the exact single-shard "
        "counters and moments")
def check_fleet_shards_smoke() -> Deviation:
    return _shard_differential(_SMOKE_FLEET, shard_count=3)


@oracle("fleet-shards-vs-single-large", "differential",
        "larger fleet, more shards: same exact shard invariance",
        smoke=False)
def check_fleet_shards_full() -> Deviation:
    return _shard_differential(_FULL_FLEET, shard_count=5)


@oracle("fleet-shards-vs-single-pool", "differential",
        "run_fleet_smoke's 200-device fleet, 1 vs 2 shards on 2 pool "
        "workers under both kernels: same aggregate, accounting audit "
        "clean", smoke=False)
def check_fleet_shards_pool() -> Deviation:
    from ..obs import audit_fleet
    mismatches = []
    for kernel in ("cohort", "event"):
        sharded, found = run_fleet_smoke(workers=2, kernel=kernel)
        mismatches += [f"{kernel}: {problem}" for problem in found + [
            f"[{finding.invariant}] {finding.message}"
            for finding in audit_fleet(sharded).findings]]
    return Deviation(
        max_deviation=float(len(mismatches)), tolerance=0.0,
        unit="mismatches",
        detail="200 devices, cohort and event kernels"
        + (f"; {mismatches}" if mismatches else ""))


#: Synchronised start is the cohort kernel's worst case: every device in
#: the first wave overlaps every other, so a large fraction of
#: transmissions demote to the exact per-event arithmetic.
_SYNC_FLEET = FleetConfig(device_count=64, area_m=(50.0, 50.0),
                          interval_s=20.0, duration_s=200.0, seed=3,
                          start="synchronised")
_KERNEL_FULL_FLEET = FleetConfig(device_count=2000, area_m=(300.0, 120.0),
                                 interval_s=60.0, duration_s=300.0, seed=7)
#: Dense enough that ~15% of transmissions demote, on both sides of
#: the shard boundary: the demotion pass at the density where its
#: gateway-major order and per-gateway interference caches do the work.
_KERNEL_CONTENDED_FLEET = FleetConfig(device_count=800, area_m=(60.0, 50.0),
                                      interval_s=0.5, duration_s=4.0, seed=5)


def _kernel_differential(config: FleetConfig,
                         shard_count: int = 1) -> Deviation:
    """Event engine vs cohort kernel on every shard of one plan.

    Counters must be bit-identical and moments within the merge
    tolerance — the equivalence contract stated in
    :mod:`repro.fleet.kernel`.
    """
    plan = generate_fleet(config)
    mismatches: list[str] = []
    transmissions = 0
    demotions = 0
    for shard in plan_shards(plan, shard_count):
        event = run_shard(shard)
        stats = KernelStats()
        cohort = run_shard_cohort(shard, stats=stats)
        transmissions += stats.transmissions
        demotions += stats.demotions
        mismatches += counters_equal(event, cohort)
        mismatches += moments_close(event, cohort)
    return Deviation(
        max_deviation=float(len(mismatches)), tolerance=0.0,
        unit="mismatches",
        detail=(f"{config.device_count} devices ({config.start}), "
                f"{shard_count} shard(s), {transmissions} transmissions, "
                f"{demotions} demoted"
                + (f"; {mismatches}" if mismatches else "")))


@oracle("cohort-vs-event", "differential",
        "the vectorized cohort kernel reproduces the event engine's "
        "aggregate exactly (staggered and synchronised-start fleets)")
def check_cohort_kernel_smoke() -> Deviation:
    staggered = _kernel_differential(_FULL_FLEET, shard_count=1)
    synchronised = _kernel_differential(_SYNC_FLEET, shard_count=1)
    return Deviation(
        max_deviation=staggered.max_deviation + synchronised.max_deviation,
        tolerance=0.0, unit="mismatches",
        detail=f"{staggered.detail} | {synchronised.detail}")


@oracle("cohort-vs-event-large", "differential",
        "2000-device sharded fleet: cohort kernel still exactly matches "
        "the event engine shard by shard", smoke=False)
def check_cohort_kernel_full() -> Deviation:
    return _kernel_differential(_KERNEL_FULL_FLEET, shard_count=4)


@oracle("cohort-vs-event-contended", "differential",
        "800 devices in 60x50 m, 2 shards: the cohort kernel's dense "
        "demotion still exactly matches the event engine", smoke=False)
def check_cohort_kernel_contended() -> Deviation:
    return _kernel_differential(_KERNEL_CONTENDED_FLEET, shard_count=2)


def shards_by_definition(plan: FleetPlan,
                         shard_count: int) -> list[ShardSpec]:
    """What :func:`plan_shards` must return, straight from its
    definition, one device at a time: a device's owner strip is
    ``min(int(x // width), shards - 1)``, a shard's members are its
    owned devices plus every device whose x-extent reaches within the
    halo of the strip, and a designated gateway is the ``(math.hypot,
    receiver_id)`` minimum over *every* receiver."""
    config = plan.config
    width = config.area_m[0] / shard_count
    mobile = plan.trajectories is not None

    def owner(x_m: float) -> int:
        return min(int(x_m // width), shard_count - 1)

    devices = []  # (row, owner, (low, high), gateway, distance)
    for row, (x_m, y_m) in enumerate(zip(plan.x_m.tolist(),
                                         plan.y_m.tolist())):
        gateway = min(plan.receivers, key=lambda receiver: (
            math.hypot(x_m - receiver.x_m, y_m - receiver.y_m),
            receiver.receiver_id))
        devices.append((row, owner(x_m), plan.trajectories[row].x_extent(
            config.duration_s) if mobile else (x_m, x_m), gateway,
            math.hypot(x_m - gateway.x_m, y_m - gateway.y_m)))
    shards = []
    for index in range(shard_count):
        x_min, x_max = index * width, (index + 1) * width
        members = [device for device in devices if device[1] == index
                   or x_min - HALO_M <= device[2][1]
                   and device[2][0] <= x_max + HALO_M]
        rows = [device[0] for device in members]
        owned = [device for device in members if device[1] == index]
        receivers = tuple(receiver for receiver in plan.receivers
                          if owner(receiver.x_m) == index)
        shards.append(ShardSpec(
            index=index, shard_count=shard_count, channel=config.channel,
            duration_s=config.duration_s, interval_s=config.interval_s,
            jitter_std_s=config.jitter_std_s,
            device_id=FLEET_DEVICE_ID_BASE + np.array(rows, dtype=int),
            x_m=plan.x_m[rows], y_m=plan.y_m[rows],
            first_wake_s=plan.first_wake_s[rows],
            drift_ppm=plan.drift_ppm[rows], clock_seed=plan.clock_seed[rows],
            owned=np.array([device[1] == index for device in members]),
            receivers=receivers,
            designated=np.array([
                (FLEET_DEVICE_ID_BASE + device[0], device[3].receiver_id)
                for device in members if device[3] in receivers
                and (mobile or device[4] <= DEFAULT_MAX_RANGE_M)]
            ).reshape(-1, 2),
            uncovered=np.array([FLEET_DEVICE_ID_BASE + device[0]
                                for device in owned if not mobile
                                and device[4] > DEFAULT_MAX_RANGE_M]),
            epoch_s=config.mobility.epoch_s if mobile else 0.0,
            trajectories=tuple(plan.trajectories[row] for row in rows)
            if mobile else (),
            designated_uplinks=tuple(
                (FLEET_DEVICE_ID_BASE + device[0], device[3].x_m,
                 device[3].y_m) for device in owned) if mobile else ()))
    return shards


def _edge_plan(positions: list[tuple[float, float]], **config) -> FleetPlan:
    """A generated plan with its first devices moved to ``positions``."""
    plan = generate_fleet(FleetConfig(device_count=40, **config))
    x_m, y_m = plan.x_m.copy(), plan.y_m.copy()
    x_m[:len(positions)], y_m[:len(positions)] = zip(*positions)
    return dataclasses.replace(plan, x_m=x_m, y_m=y_m)


@oracle("shards-vs-definition", "differential",
        "the columnar shard planner equals its one-device-at-a-time "
        "definition for every layout, start and mobility, 1-7 shards, "
        "boundary, tie and cutoff devices included")
def check_shards_by_definition() -> Deviation:
    base = dict(device_count=150, area_m=(120.0, 40.0), interval_s=60.0,
                duration_s=900.0, seed=7)
    plans = [generate_fleet(FleetConfig(**base, layout=layout, start=start))
             for layout, start in (("uniform", "staggered"),
                                   ("grid", "synchronised"),
                                   ("clusters", "staggered"))]
    plans += [generate_fleet(FleetConfig(**base, mobility=MobilityConfig(
        model="random-waypoint", speed_mps=speed, epoch_s=30.0, seed=2)))
              for speed in (0.0, 3.0)]
    plans += [
        # Receivers on exact binary coordinates: (14, 7) is equidistant
        # from receivers 0 and 1; x = 16, 28, 56 are strip boundaries
        # for 7, 4 and 2 shards, and 112 is the far edge.
        _edge_plan([(14.0, 7.0), (56.0, 30.0), (112.0, 10.0), (0.0, 50.0),
                    (16.0, 0.0), (28.0, 56.0)], area_m=(112.0, 56.0)),
        # Gateways at (28, 28) and (84, 28): the first four devices are
        # exactly DEFAULT_MAX_RANGE_M (20 m) from theirs, the fifth one float
        # beyond, the last 20.0 m by np.hypot but not by math.hypot.
        _edge_plan([(48.0, 28.0), (40.0, 44.0), (28.0, 8.0), (64.0, 28.0),
                    (math.nextafter(48.0, 60.0), 28.0),
                    (39.64265386382772, 44.26187599900754)],
                   area_m=(112.0, 56.0), receiver_spacing_m=56.0),
        # Near-ties np.hypot orders the other way round.
        _edge_plan([(11.72023483453723, 11.1), (2.3854515926496003, 11.1)],
                   area_m=(61.7, 33.3)),
    ]
    mismatches = [f"plan {number}, shard {shard.index} of {count}"
                  for number, plan in enumerate(plans)
                  for count in range(1, 8)
                  for shard, expected in zip(
                      plan_shards(plan, count),
                      shards_by_definition(plan, count), strict=True)
                  if shard != expected]
    return Deviation(max_deviation=float(len(mismatches)), tolerance=0.0,
                     unit="mismatches",
                     detail=f"{len(plans)} plans x 1-7 shards"
                     + (f"; {mismatches[:5]}" if mismatches else ""))


def _deployment_counts(install_zero_plan: bool, duration_s: float = 30.0,
                       device_count: int = 4, interval_s: float = 2.0,
                       seed: int = 3) -> dict[str, float]:
    """One small Wi-LE deployment, with or without a zero-intensity
    fault plan installed; returns its observable delivery counters.

    Mirrors the resilience experiment's cell layout (ring of devices
    around one gateway) so the differential exercises the injector
    wiring the sweep actually uses.
    """
    from ..core.device import WiLEDevice
    from ..core.payload import SensorKind, SensorReading
    from ..core.receiver import WiLEReceiver
    from ..faults import FaultConfig, FaultInjector, build_fault_plan
    from ..sim import Position, Simulator, WirelessMedium

    sim = Simulator()
    medium = WirelessMedium(sim)
    receiver = WiLEReceiver(sim, medium, position=Position(0.0, 0.0))
    gateway_radio = receiver.radio
    devices: dict[int, WiLEDevice] = {}
    for index in range(device_count):
        angle = 2.0 * math.pi * index / device_count
        device = WiLEDevice(sim, medium, device_id=0x00CE0000 + index + 1,
                            position=Position(5.0 * math.cos(angle),
                                              5.0 * math.sin(angle)))
        device.start(interval_s,
                     lambda: (SensorReading(SensorKind.TEMPERATURE_C, 17.0),),
                     first_wake_s=(index + 1) * interval_s
                     / (device_count + 1))
        devices[device.device_id] = device
    if install_zero_plan:
        plan = build_fault_plan(
            FaultConfig(seed=seed, duration_s=duration_s, intensity=0.0),
            device_ids=tuple(devices), gateway_count=1)
        injector = FaultInjector(sim, medium, plan, devices=devices,
                                 gateway_radios=(gateway_radio,))
        injector.install()

    device_radios = {device.radio for device in devices.values()}
    counts = {"delivered": 0, "lost_snr": 0, "lost_collision": 0,
              "lost_injected": 0}

    def on_delivery(transmission, report) -> None:
        if report.receiver is not gateway_radio:
            return
        if transmission.sender not in device_radios:
            return
        if report.delivered:
            counts["delivered"] += 1
        elif report.reason == "injected-fault":
            counts["lost_injected"] += 1
        elif report.reason == "snr":
            counts["lost_snr"] += 1
        elif report.reason == "collision":
            counts["lost_collision"] += 1

    medium.add_delivery_listener(on_delivery)
    sim.run(until_s=duration_s)
    counts["beacons"] = float(sum(len(device.transmissions)
                                  for device in devices.values()))
    counts["messages"] = float(len(receiver.messages))
    counts["reboots"] = float(sum(device.reboots
                                  for device in devices.values()))
    counts["fault_energy_j"] = sum(device.fault_energy_j
                                   for device in devices.values())
    return counts


@oracle("faults-zero-intensity-vs-clean", "differential",
        "a fault plan at intensity 0 installs nothing observable: "
        "identical delivery to a run with no injector at all")
def check_zero_intensity() -> Deviation:
    injected = _deployment_counts(install_zero_plan=True)
    clean = _deployment_counts(install_zero_plan=False)
    differing = [name for name in sorted(set(injected) | set(clean))
                 if injected.get(name) != clean.get(name)]
    return Deviation(
        max_deviation=float(len(differing)), tolerance=0.0,
        unit="mismatches",
        detail=("identical counters" if not differing else
                f"differ: {differing} injected={injected} clean={clean}"))


@oracle("runner-parallel-vs-serial", "differential",
        "the process-pool sweep returns bit-identical results to the "
        "serial run (the runner determinism contract)")
def check_runner_determinism() -> Deviation:
    seeds = tuple(range(6))
    serial = replicate(_idle_access_delay, seeds=seeds, workers=1)
    parallel = replicate(_idle_access_delay, seeds=seeds, workers=2)
    mismatches = sum(a != b for a, b in zip(serial.values, parallel.values))
    return Deviation(max_deviation=float(mismatches), tolerance=0.0,
                     unit="mismatches",
                     detail=f"{len(seeds)} seeds, exact float equality")
