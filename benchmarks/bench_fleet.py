"""Bench: fleet-scale runtime baseline for the sharded runner.

Records how long a mid-size fleet takes end to end (generation,
sharding, simulation, merge) so later performance PRs have a
trajectory, and asserts the physics stayed sane while we were busy
being fast. The 10,000-device headline run lives behind
``python -m repro.fleet``; benching a minutes-long simulation on every
CI push would drown the suite, so the bench scales the same workload
down to ~1,000 devices.

Every bench records into ``BENCH_fleet.json`` (see ``conftest.py``):
raw seconds, machine-normalised work units, and the exact aggregate
counters, so ``python -m repro.check.bench`` can gate both speed and
determinism against the committed baseline.
"""

import time

from conftest import once, record_baseline, timed_once

from repro.experiments.fleet_scale import run_fleet_smoke
from repro.fleet import FleetConfig, generate_fleet, run_sharded_fleet
from repro.fleet.aggregate import counters_equal
from repro.obs import audit_fleet

BENCH_CONFIG = FleetConfig(device_count=1000, area_m=(150.0, 150.0),
                           interval_s=60.0, duration_s=1800.0, seed=0)


def _aggregate_counters(aggregate):
    return {
        "device_count": aggregate.device_count,
        "beacons_sent": aggregate.beacons_sent,
        "uplink_delivered": aggregate.uplink_delivered,
        "uplink_lost_collision": aggregate.uplink_lost_collision,
        "uplink_lost_snr": aggregate.uplink_lost_snr,
    }


def test_fleet_thousand_devices(benchmark):
    """1,000 devices, 30 simulated minutes, 4 shards, event engine — the
    baseline."""
    def run():
        plan = generate_fleet(BENCH_CONFIG)
        return run_sharded_fleet(plan, shard_count=4, kernel="event")

    aggregate, seconds = timed_once(benchmark, run)
    record_baseline("fleet", "fleet_event_1000dev", seconds,
                    counters=_aggregate_counters(aggregate))
    print()
    print(f"devices={aggregate.device_count} "
          f"sent={aggregate.beacons_sent} "
          f"delivery={aggregate.delivery_rate:.4f} "
          f"util={aggregate.channel_utilisation:.4%}")
    assert aggregate.device_count == 1000
    assert aggregate.beacons_sent > 25_000
    assert aggregate.delivery_rate > 0.99
    assert audit_fleet(aggregate).ok


def test_fleet_cohort_speedup(benchmark):
    """The cohort kernel on the same fleet: identical counters, >=10x.

    The event engine's time is measured inline (it is the comparison
    leg, not the bench subject); the cohort run is the benched path.
    """
    plan = generate_fleet(BENCH_CONFIG)
    started = time.perf_counter()
    event = run_sharded_fleet(plan, shard_count=4, kernel="event")
    event_seconds = time.perf_counter() - started

    cohort, cohort_seconds = timed_once(
        benchmark, run_sharded_fleet, plan, shard_count=4, kernel="cohort")
    record_baseline("fleet", "fleet_cohort_1000dev", cohort_seconds,
                    counters=_aggregate_counters(cohort))
    speedup = event_seconds / cohort_seconds
    print()
    print(f"event={event_seconds:.2f}s cohort={cohort_seconds:.2f}s "
          f"speedup={speedup:.1f}x")
    assert counters_equal(event, cohort) == []
    assert speedup >= 10.0
    assert audit_fleet(cohort).ok


def test_fleet_generation_only(benchmark):
    """Population expansion alone — catches planner regressions
    (nearest-gateway assignment is O(1) per device, not O(receivers))."""
    plan, seconds = timed_once(benchmark, generate_fleet, BENCH_CONFIG)
    record_baseline("fleet", "fleet_generation_1000dev", seconds,
                    counters={"devices": len(plan.x_m),
                              "receivers": len(plan.receivers)})
    assert len(plan.x_m) == 1000
    assert len(plan.receivers) == 121


def test_fleet_shard_invariance_smoke(benchmark):
    """The CI guarantee, timed: 1 shard vs 2 shards, identical stats —
    on the event engine its baseline was recorded with."""
    (aggregate, mismatches), seconds = timed_once(
        benchmark, run_fleet_smoke, kernel="event")
    record_baseline("fleet", "fleet_smoke_invariance", seconds,
                    counters={**_aggregate_counters(aggregate),
                              "mismatches": len(mismatches)})
    print()
    print(f"smoke devices={aggregate.device_count} "
          f"sent={aggregate.beacons_sent} mismatches={mismatches}")
    assert mismatches == []
