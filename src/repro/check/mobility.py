"""Mobility oracles: trajectories, handoff costs, fleet equivalences.

The family pins the three load-bearing claims of :mod:`repro.mobility`:

* trajectories are **seed-stable** (blake2b draws; golden values) and a
  zero-speed mobility fleet is **bit-identical** to the static fleet
  under *both* engines — the mobility integration cannot perturb any
  existing result;
* the handoff cost model reproduces the paper's §3.1 structure exactly
  (Wi-LE zero; WiFi 20 MAC + 7 higher-layer frames, energy from the
  replayed exchange);
* a *moving* fleet keeps the sharding invariance: N shards, one answer.

Run with ``python -m repro.check --only mobility``.
"""

from __future__ import annotations

import math

from ..energy import calibration as cal
from . import Deviation, oracle

#: Seed-pinned (epoch, x, y) samples: random-waypoint for device 7 from
#: (12.5, 30) in a 200x100 area (model="random-waypoint", speed 1.5,
#: epoch 60 s, seed 42). The draws are blake2b-stable by construction;
#: the 1e-9 tolerance absorbs last-ulp libm variance in the knot-time
#: arithmetic (``math.hypot`` legs), nothing more.
_RWP_GOLDEN = (
    (0, 12.5, 30.0),
    (10, 90.62164365037928, 26.698788354515187),
    (30, 164.2326971819601, 25.279595872951464),
    (60, 79.10549686481883, 55.912931919968955),
)

#: Same idea for the commuter model (device 3 from (50, 20), speed 1.4,
#: dwell 300 s, seed 42) — pins the Manhattan street-then-avenue legs.
_COMMUTER_GOLDEN = (
    (5, 115.79816382913847, 80.38796460470995),
    (20, 115.79816382913847, 38.94634990625528),
    (40, 115.79816382913847, 37.08506556777084),
)


@oracle("mobility-trajectory-golden", "analytic",
        "seeded trajectories reproduce pinned golden positions")
def _trajectory_golden() -> Deviation:
    from ..mobility import MobilityConfig, build_trajectory
    worst = 0.0
    cases = [
        (MobilityConfig(model="random-waypoint", speed_mps=1.5,
                        epoch_s=60.0, seed=42),
         7, (12.5, 30.0), _RWP_GOLDEN),
        (MobilityConfig(model="commuter", speed_mps=1.4, epoch_s=60.0,
                        seed=42, dwell_s=300.0),
         3, (50.0, 20.0), _COMMUTER_GOLDEN),
    ]
    for config, device_id, start, golden in cases:
        trajectory = build_trajectory(config, device_id, start,
                                      (200.0, 100.0), 3600.0)
        for epoch, x_m, y_m in golden:
            got_x, got_y = trajectory.epoch_position(epoch)
            worst = max(worst, abs(got_x - x_m), abs(got_y - y_m))
    return Deviation(max_deviation=worst, tolerance=1e-9, unit="m",
                     detail=f"{sum(len(g) for *_rest, g in cases)} pinned "
                            f"positions across 2 models")


def _zero_speed_states(engine) -> tuple[dict, dict]:
    """Aggregate states of a static plan and its zero-speed mobility
    twin, both sharded 2-ways, each shard run by ``engine``."""
    from ..fleet.aggregate import FleetAggregate
    from ..fleet.population import FleetConfig, generate_fleet
    from ..fleet.shards import plan_shards
    from ..mobility import MobilityConfig

    base = dict(device_count=48, area_m=(120.0, 60.0), interval_s=60.0,
                duration_s=900.0, seed=5)
    static_plan = generate_fleet(FleetConfig(**base))
    mobile_plan = generate_fleet(FleetConfig(
        **base, mobility=MobilityConfig(model="random-waypoint",
                                        speed_mps=0.0, epoch_s=60.0,
                                        seed=9)))
    states = []
    for plan in (static_plan, mobile_plan):
        total = FleetAggregate()
        for shard in plan_shards(plan, 2):
            total.merge(engine(shard))
        states.append(total.to_state())
    return states[0], states[1]


def _state_mismatches(a: dict, b: dict) -> tuple[int, str]:
    mismatched = [key for key in a if a[key] != b[key]]
    return len(mismatched), ", ".join(mismatched) or "bit-identical states"


@oracle("mobility-zero-speed-static-event", "metamorphic",
        "zero-speed mobility fleet == static fleet, event engine, "
        "bit-identical")
def _zero_speed_event() -> Deviation:
    from ..fleet.shards import run_shard
    count, detail = _state_mismatches(*_zero_speed_states(run_shard))
    return Deviation(max_deviation=float(count), tolerance=0.0,
                     unit="mismatches", detail=detail)


@oracle("mobility-zero-speed-static-cohort", "metamorphic",
        "zero-speed mobility fleet == static fleet, cohort kernel, "
        "bit-identical")
def _zero_speed_cohort() -> Deviation:
    from ..fleet.kernel import run_shard_cohort
    count, detail = _state_mismatches(*_zero_speed_states(run_shard_cohort))
    return Deviation(max_deviation=float(count), tolerance=0.0,
                     unit="mismatches", detail=detail)


@oracle("mobility-handoff-crossings", "analytic",
        "constant-velocity walk along a row of N APs makes exactly N-1 "
        "handoffs")
def _handoff_crossings() -> Deviation:
    from ..mobility import ApGrid, HandoffPolicy, Trajectory, walk_trajectory
    grid = ApGrid.build((500.0, 50.0), spacing_m=50.0)
    # One straight pass down the row's centreline: the strongest AP is
    # the nearest, which changes exactly at the 9 cell midlines.
    trajectory = Trajectory(device_id=0, epoch_s=10.0,
                            knots=((0.0, 5.0, 25.0), (1000.0, 495.0, 25.0)))
    stats = walk_trajectory(trajectory, grid, HandoffPolicy(kind="strongest"),
                            duration_s=1000.0, interval_s=10.0)
    expected = grid.columns - 1
    ok = (stats.handoffs == expected and stats.reacquisitions == 1
          and stats.outage_s == 0.0)
    return Deviation(max_deviation=0.0 if ok else 1.0, tolerance=0.0,
                     unit="mismatches",
                     detail=f"{expected} crossings" if ok else
                     f"handoffs={stats.handoffs} (want {expected}), "
                     f"reacq={stats.reacquisitions} (want 1), "
                     f"outage={stats.outage_s}")


@oracle("mobility-wile-handoff-free", "analytic",
        "Wi-LE handoff cost is exactly zero; WiFi replays exactly the "
        "paper's 20+7 frames")
def _wile_handoff_free() -> Deviation:
    from ..mobility import reassociation_cost
    failures = []
    wile = reassociation_cost("Wi-LE")
    if (wile.energy_j, wile.latency_s, wile.airtime_s) != (0.0, 0.0, 0.0) \
            or wile.mac_frames or wile.higher_frames:
        failures.append(f"Wi-LE cost not zero: {wile}")
    for technology in ("WiFi-PS", "WiFi-DC"):
        wifi = reassociation_cost(technology)
        if wifi.mac_frames != cal.PAPER_MAC_FRAME_COUNT:
            failures.append(f"{technology}: {wifi.mac_frames} MAC frames, "
                            f"paper says {cal.PAPER_MAC_FRAME_COUNT}")
        if wifi.higher_frames != cal.PAPER_HIGHER_LAYER_FRAME_COUNT:
            failures.append(
                f"{technology}: {wifi.higher_frames} higher-layer frames, "
                f"paper says {cal.PAPER_HIGHER_LAYER_FRAME_COUNT}")
        if not wifi.energy_j > 0.0 or not wifi.airtime_s > 0.0:
            failures.append(f"{technology}: replay produced no energy")
    ble = reassociation_cost("BLE")
    if not 0.0 < ble.energy_j < reassociation_cost("WiFi-PS").energy_j:
        failures.append(f"BLE re-pair energy {ble.energy_j!r} J not "
                        f"between zero and the WiFi re-association")
    return Deviation(max_deviation=float(len(failures)), tolerance=0.0,
                     unit="mismatches", detail="; ".join(failures)
                     or "Wi-LE free; WiFi 20+7 frames; BLE in between")


@oracle("mobility-grid-candidates", "differential",
        "O(1) 3x3 AP candidate lookup matches the full scan")
def _grid_candidates() -> Deviation:
    from ..faults.plan import stable_uniform
    from ..mobility import ApGrid
    mismatches = 0
    for spacing in (25.0, 60.0, 140.0):
        grid = ApGrid.build((300.0, 200.0), spacing_m=spacing)
        for index in range(200):
            x_m = 300.0 * stable_uniform("grid-oracle", spacing, index, "x")
            y_m = 200.0 * stable_uniform("grid-oracle", spacing, index, "y")
            if grid.best(x_m, y_m) != grid.best_brute(x_m, y_m):
                mismatches += 1
    return Deviation(max_deviation=float(mismatches), tolerance=0.0,
                     unit="mismatches",
                     detail="600 positions x 3 grid pitches")


@oracle("mobility-moving-shard-invariance", "differential",
        "a moving fleet keeps N-shard == 1-shard invariance", smoke=False)
def _moving_shard_invariance() -> Deviation:
    from ..fleet.aggregate import FleetAggregate
    from ..fleet.population import FleetConfig, generate_fleet
    from ..fleet.shards import plan_shards, run_shard
    from ..mobility import MobilityConfig

    plan = generate_fleet(FleetConfig(
        device_count=48, area_m=(240.0, 60.0), interval_s=60.0,
        duration_s=1200.0, seed=11,
        mobility=MobilityConfig(model="random-waypoint", speed_mps=3.0,
                                epoch_s=30.0, seed=4)))
    states = []
    for shard_count in (1, 3):
        total = FleetAggregate()
        for shard in plan_shards(plan, shard_count):
            total.merge(run_shard(shard))
        states.append(total.to_state())
    one, many = states
    failures = []
    worst_rel = 0.0

    def fold(key: str, a, b) -> None:
        nonlocal worst_rel
        if isinstance(a, bool) or not isinstance(a, (int, float)):
            return
        if isinstance(a, int) and isinstance(b, int):
            if a != b:
                failures.append(f"{key}: {a} != {b}")
            return
        scale = max(abs(a), abs(b), 1e-30)
        worst_rel = max(worst_rel, abs(a - b) / scale)

    for key, value in one.items():
        if key == "shard_count":
            continue  # metadata: intentionally differs
        if isinstance(value, dict):
            for sub_key, sub_value in value.items():
                fold(f"{key}.{sub_key}", sub_value, many[key][sub_key])
        else:
            fold(key, value, many[key])
    if failures:
        return Deviation(max_deviation=math.inf, tolerance=0.0,
                         unit="counter diff", detail="; ".join(failures))
    return Deviation(max_deviation=worst_rel, tolerance=1e-9, unit="rel",
                     detail="integer counters exact; float moments to "
                            "merge-order tolerance")
