"""Tests for the fleet subsystem: population determinism, shard
geometry, aggregate merging, and the headline shard-count-invariance
guarantee (1 shard vs N shards => identical statistics)."""

import gc
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.differential import (
    check_shards_by_definition,
    shards_by_definition,
)
from repro.experiments.fleet_scale import (
    run_fleet_point,
    run_fleet_smoke,
)
from repro.fleet import (
    DEFAULT_MAX_RANGE_M,
    FleetAggregate,
    FleetConfig,
    FleetError,
    MergeableHistogram,
    generate_fleet,
    plan_shards,
    run_shard,
    run_sharded_fleet,
)
from repro.fleet import kernel
from repro.fleet.aggregate import AggregateError, counters_equal, moments_close
from repro.fleet.population import FLEET_DEVICE_ID_BASE
from repro.fleet.shards import HALO_M, ShardError, ShardSpec
from repro.mobility import MobilityConfig
from repro.obs import audit_fleet
from repro.sim import ClockError, Position, crystal_draws, crystal_population

# Small but collision-active: 60 devices on 60x30 m beaconing every
# 30 s for 10 minutes, so the invariance checks exercise collisions,
# capture, and SNR losses, not just clean deliveries.
SMALL = FleetConfig(device_count=60, area_m=(60.0, 30.0), interval_s=30.0,
                    duration_s=600.0, seed=11)


class TestPopulation:
    def test_generation_is_deterministic(self):
        first = generate_fleet(SMALL)
        second = generate_fleet(SMALL)
        assert first == second

    def test_seed_changes_every_stream(self):
        other = generate_fleet(FleetConfig(
            device_count=60, area_m=(60.0, 30.0), interval_s=30.0,
            duration_s=600.0, seed=12))
        base = generate_fleet(SMALL)
        for column in ("x_m", "y_m", "first_wake_s", "drift_ppm",
                       "clock_seed"):
            assert not np.array_equal(getattr(base, column),
                                      getattr(other, column)), column

    def test_device_ids_unique_and_offset(self):
        (shard,) = plan_shards(generate_fleet(SMALL), 1)
        ids = shard.device_id.tolist()
        assert len(set(ids)) == len(ids)
        assert min(ids) >= 0x10000

    def test_positions_inside_area(self):
        for layout in ("uniform", "grid", "clusters"):
            plan = generate_fleet(FleetConfig(
                device_count=50, area_m=(40.0, 20.0), layout=layout))
            assert ((0.0 <= plan.x_m) & (plan.x_m <= 40.0)).all()
            assert ((0.0 <= plan.y_m) & (plan.y_m <= 20.0)).all()

    def test_staggered_first_wakes_distinct(self):
        plan = generate_fleet(SMALL)
        wakes = plan.first_wake_s.tolist()
        assert len(set(wakes)) == len(wakes)
        assert all(0.0 < wake <= SMALL.interval_s for wake in wakes)

    def test_synchronised_start_shares_first_wake(self):
        plan = generate_fleet(FleetConfig(
            device_count=10, start="synchronised", interval_s=45.0))
        assert set(plan.first_wake_s.tolist()) == {45.0}

    def test_clock_replays_identically(self):
        (shard,) = plan_shards(generate_fleet(SMALL), 1)
        device = shard.device_specs()[0]
        first, second = device.make_clock(), device.make_clock()
        assert [first.actual_interval_s(30.0) for _ in range(5)] == \
            [second.actual_interval_s(30.0) for _ in range(5)]

    def test_nearest_receiver_matches_brute_force(self):
        plan = generate_fleet(FleetConfig(
            device_count=100, area_m=(73.0, 41.0), seed=5))
        nearest, _ = plan.nearest_receivers()
        for x_m, y_m, index in zip(plan.x_m.tolist(), plan.y_m.tolist(),
                                   nearest.tolist()):
            brute = min(plan.receivers, key=lambda receiver: (
                Position(x_m, y_m).distance_to(receiver.position),
                receiver.receiver_id))
            assert plan.receivers[index] == brute

    def test_receiver_grid_covers_area(self):
        _, distance = generate_fleet(SMALL).nearest_receivers()
        assert (distance <= DEFAULT_MAX_RANGE_M).all()

    def test_vectorized_positions_match_reference(self):
        # The batched placement must reproduce the scalar loops draw for
        # draw, for every layout, seed, and fleet size.
        from repro.fleet.population import _positions, _positions_reference
        for layout in ("uniform", "grid", "clusters"):
            for seed in (0, 7, 123):
                for count in (1, 17, 300):
                    config = FleetConfig(device_count=count,
                                         area_m=(80.0, 45.0),
                                         layout=layout, seed=seed)
                    rng = random.Random(f"{config.seed}-positions")
                    x, y = _positions(config)
                    assert list(zip(x.tolist(), y.tolist())) == \
                        _positions_reference(config, rng), \
                        (layout, seed, count)

    @pytest.mark.parametrize("chunks, extra", [(0, 0), (0, 1), (1, -1),
                                               (1, 0), (1, 1), (3, 7)])
    def test_uniform_stream_is_the_scalar_stream(self, chunks, extra):
        # The batched draws are random.Random(key).random()'s, bit for
        # bit, on both sides of every chunk boundary.
        from repro.fleet.population import _CHUNK, _uniform_stream
        count = chunks * _CHUNK + extra
        for key in ("0-positions", "7-phases"):
            rng = random.Random(key)
            assert _uniform_stream(key, count).tolist() == \
                [rng.random() for _ in range(count)], (key, count)

    def test_positions_and_phases_pin_golden_values(self):
        # Guards against the vectorized path and its reference twin
        # drifting together: these exact floats are what seed 0 produced
        # before the batching change.
        from repro.fleet.population import _positions
        uniform = FleetConfig(device_count=5, area_m=(80.0, 45.0), seed=0)
        x, y = _positions(uniform)
        assert (x[0], y[0]) == (71.75601875340111, 0.9829845108219848)
        clusters = FleetConfig(device_count=5, area_m=(80.0, 45.0),
                               layout="clusters", seed=0)
        x, y = _positions(clusters)
        assert (x[0], y[0]) == (74.35038651392726, 16.088237731939646)
        plan = generate_fleet(FleetConfig(
            device_count=3, area_m=(80.0, 45.0), interval_s=30.0, seed=0))
        assert plan.first_wake_s.tolist() == \
            [7.7850909453352815, 19.225505931215533, 11.933883084529324]
        crystals = list(zip(plan.drift_ppm.tolist(),
                            plan.clock_seed.tolist()))
        assert crystals == \
            [(47.08577023403322, 1806341205),
             (-69.82890523505749, 173879092),
             (-3.3503257864528986, 1739178872)]
        config = plan.config
        clocks = crystal_population(
            config.device_count, drift_std_ppm=config.drift_std_ppm,
            jitter_std_s=config.jitter_std_s, seed=config.seed)
        assert [(drift_ppm, config.jitter_std_s, clock_seed)
                for drift_ppm, clock_seed in crystals] == \
            [(clock.drift_ppm, clock.jitter_std_s, clock.seed)
             for clock in clocks]

    def test_crystal_draws_replay_one_scalar_stream(self):
        # Two columns, drawn as one random.Random(seed) stream: per
        # crystal its gauss drift, then its randrange jitter seed.
        rng = random.Random(5)
        expected = [(rng.gauss(0.0, 50.0), rng.randrange(2**31))
                    for _ in range(1_000)]
        drifts, seeds = crystal_draws(1_000, drift_std_ppm=50.0,
                                      jitter_std_s=2e-3, seed=5)
        assert list(zip(drifts, seeds)) == expected
        assert {type(seed) for seed in seeds} == {int}
        for count, drift_std_ppm, jitter_std_s in ((-1, 50.0, 2e-3),
                                                   (3, 5e6, 2e-3),
                                                   (3, 50.0, -1.0)):
            with pytest.raises(ClockError):
                crystal_draws(count, drift_std_ppm=drift_std_ppm,
                              jitter_std_s=jitter_std_s, seed=5)

    def test_invalid_configs_rejected(self):
        for kwargs in ({"device_count": 0}, {"interval_s": -1.0},
                       {"area_m": (0.0, 10.0)}, {"layout": "ring"},
                       {"start": "later"}, {"receiver_spacing_m": 0.0}):
            with pytest.raises(FleetError):
                FleetConfig(**kwargs)

    def test_invalid_clocks_rejected_at_generation(self):
        for kwargs in ({"jitter_std_s": -1.0}, {"drift_std_ppm": 5e6}):
            with pytest.raises(ClockError):
                generate_fleet(FleetConfig(device_count=3, **kwargs))

    def test_generation_memory_per_device(self):
        # Generation keeps each device's crystal as numbers only: with a
        # live clock (and its Mersenne Twister state) per device the
        # peak is ~3.4 KB per device. Generating and planning 8 shards
        # peaked at ~735 B per device with a DeviceSpec object per
        # device; as numpy columns, plan and shards stay under half.
        # All 8 specs are built and held at once, as a pool run does.
        count = 5_000
        list(plan_shards(generate_fleet(FleetConfig(device_count=10)), 8))
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            plan = generate_fleet(FleetConfig(device_count=count))
            shards = list(plan_shards(plan, 8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(plan.x_m) == count
        assert sum(int(shard.owned.sum()) for shard in shards) == count
        assert (peak - before) / count < 360


class TestShardPlanning:
    def test_ownership_partitions_fleet(self):
        plan = generate_fleet(SMALL)
        shards = plan_shards(plan, 3)
        owned = [device_id for shard in shards
                 for device_id in shard.device_id[shard.owned].tolist()]
        assert sorted(owned) == list(range(
            FLEET_DEVICE_ID_BASE, FLEET_DEVICE_ID_BASE + len(plan.x_m)))

    def test_halo_contains_only_near_boundary_foreigners(self):
        plan = generate_fleet(SMALL)
        width = SMALL.area_m[0] / 3
        for shard in plan_shards(plan, 3):
            ids = shard.device_id.tolist()
            assert len(set(ids)) == len(ids)
            x_min, x_max = shard.index * width, (shard.index + 1) * width
            for x_m in shard.x_m[~shard.owned].tolist():
                assert x_min - HALO_M <= x_m <= x_max + HALO_M

    def test_designated_pairs_unique_fleet_wide(self):
        plan = generate_fleet(SMALL)
        shards = plan_shards(plan, 4)
        senders = [pair[0] for shard in shards for pair in shard.designated]
        assert len(set(senders)) == len(senders)

    @settings(max_examples=60, deadline=None)
    @given(layout=st.sampled_from(("uniform", "grid", "clusters")),
           start=st.sampled_from(("staggered", "synchronised")),
           speed=st.sampled_from((None, 0.0, 2.5)),
           device_count=st.integers(1, 60),
           width=st.floats(5.0, 200.0), height=st.floats(5.0, 60.0),
           spacing=st.sampled_from((14.0, 31.0, 60.0)),
           seed=st.integers(0, 2**16), shard_count=st.integers(1, 7))
    def test_plan_matches_definition(self, layout, start, speed,
                                     device_count, width, height, spacing,
                                     seed, shard_count):
        mobility = None if speed is None else MobilityConfig(
            model="random-waypoint", speed_mps=speed, epoch_s=30.0,
            seed=seed)
        plan = generate_fleet(FleetConfig(
            device_count=device_count, area_m=(width, height),
            interval_s=60.0, duration_s=600.0, layout=layout, start=start,
            receiver_spacing_m=spacing, seed=seed, mobility=mobility))
        assert plan_shards(plan, shard_count) == \
            shards_by_definition(plan, shard_count)

    def test_definition_oracle_holds_on_edge_devices(self):
        # Strip-boundary and far-edge devices, an exact receiver tie and
        # devices exactly max_range_m from their gateway.
        deviation = check_shards_by_definition()
        assert deviation.max_deviation == 0, deviation.detail

    def test_zero_shards_rejected(self):
        plan = generate_fleet(SMALL)
        with pytest.raises(ShardError):
            plan_shards(plan, 0)


class TestShardInvariance:
    """The tentpole guarantee: sharding must not change the physics."""

    def test_one_vs_many_shards_identical(self):
        plan = generate_fleet(SMALL)
        single = run_sharded_fleet(plan, shard_count=1)
        for shard_count in (2, 3):
            sharded = run_sharded_fleet(plan, shard_count=shard_count)
            assert counters_equal(single, sharded) == [], shard_count
            assert moments_close(single, sharded) == [], shard_count

    def test_worker_pool_matches_serial(self):
        plan = generate_fleet(SMALL)
        serial = run_sharded_fleet(plan, shard_count=2, workers=1)
        pooled = run_sharded_fleet(plan, shard_count=2, workers=2)
        assert counters_equal(serial, pooled) == []
        assert moments_close(serial, pooled) == []

    def test_synchronised_collisions_survive_sharding(self):
        # The nastiest case: everyone transmits in the same slot, so
        # collision outcomes depend on exactly which interferers each
        # shard simulates.
        config = FleetConfig(device_count=80, area_m=(60.0, 30.0),
                             interval_s=20.0, duration_s=300.0,
                             start="synchronised", seed=3)
        plan = generate_fleet(config)
        single = run_sharded_fleet(plan, shard_count=1)
        sharded = run_sharded_fleet(plan, shard_count=3)
        assert single.uplink_lost_collision > 0
        assert counters_equal(single, sharded) == []

    def test_runs_are_deterministic_per_seed(self):
        plan = generate_fleet(SMALL)
        first = run_sharded_fleet(plan, shard_count=2)
        second = run_sharded_fleet(plan, shard_count=2)
        assert first.to_dict() == second.to_dict()

    def test_uplink_conservation_and_audit(self):
        plan = generate_fleet(SMALL)
        aggregate = run_sharded_fleet(plan, shard_count=2)
        decided = (aggregate.uplink_delivered
                   + aggregate.uplink_lost_collision
                   + aggregate.uplink_lost_snr
                   + aggregate.uplink_out_of_range)
        assert decided == aggregate.beacons_sent
        report = audit_fleet(aggregate)
        assert report.ok, report.render()

    def test_single_shard_spec_runs_standalone(self):
        plan = generate_fleet(SMALL)
        (shard,) = plan_shards(plan, 1)
        aggregate = run_shard(shard)
        assert aggregate.device_count == SMALL.device_count
        assert aggregate.beacons_sent > 0


class TestStreamedRun:
    """A serial run builds each shard spec when its turn comes and
    drops it once the shard's state is back."""

    def test_plan_is_a_sequence_of_specs(self):
        plan = generate_fleet(SMALL)
        shards = plan_shards(plan, 3)
        built = list(shards)
        assert len(shards) == 3 and shards == built and built == shards
        assert shards[-1] == built[2] and shards != built[:2]
        with pytest.raises(IndexError):
            shards[3]
        with pytest.raises(TypeError, match="lazy sequence"):
            shards[:2]
        with pytest.raises(TypeError):
            shards[1.0]
        assert shards[np.int64(1)] == built[1]

    def test_serial_run_holds_one_spec_at_a_time(self, monkeypatch):
        def live_specs() -> int:
            return sum(isinstance(obj, ShardSpec) for obj in gc.get_objects())

        run_cohort = kernel.run_shard_cohort
        seen = []

        def counting(shard, stats=None):
            seen.append(live_specs() - baseline)
            return run_cohort(shard, stats)

        monkeypatch.setattr(kernel, "run_shard_cohort", counting)
        plan = generate_fleet(FleetConfig(
            device_count=2_000, area_m=(400.0, 100.0), interval_s=600.0,
            duration_s=1_200.0, seed=1))
        gc.collect()
        baseline = live_specs()
        run_sharded_fleet(plan, shard_count=8, workers=1)
        assert seen == [1] * 8

    def test_streamed_run_memory_per_device(self):
        # generate_fleet plus a serial 8-shard run at fleet-sparse
        # density (5 devices per 100 m^2): ~100 B per device with one
        # spec alive at a time, ~170 with all 8 specs built up front.
        # Gateways every 60 m keep the traced run short: tracemalloc
        # slows the kernel's per-(device, gateway) scalar math ~15x.
        count = 10_000
        config = FleetConfig(device_count=count, area_m=(2000.0, 100.0),
                             interval_s=600.0, duration_s=600.0,
                             receiver_spacing_m=60.0)
        run_sharded_fleet(generate_fleet(FleetConfig(device_count=10)), 8)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            aggregate = run_sharded_fleet(generate_fleet(config),
                                          shard_count=8, workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert aggregate.device_count == count
        assert (peak - before) / count < 130


class TestAggregate:
    def test_merge_is_exact_sum(self):
        left = FleetAggregate(device_count=2, shard_count=1,
                              duration_s=10.0, beacons_sent=5,
                              uplink_delivered=4, uplink_lost_collision=1)
        right = FleetAggregate(device_count=3, shard_count=1,
                               duration_s=10.0, beacons_sent=7,
                               uplink_delivered=7)
        left.energy_j.observe(1.0)
        right.energy_j.observe(3.0)
        left.merge(right)
        assert left.device_count == 5
        assert left.beacons_sent == 12
        assert left.uplink_delivered == 11
        assert left.shard_count == 2
        assert left.energy_j.count == 2
        assert left.energy_j.mean == pytest.approx(2.0)

    def test_merge_rejects_different_horizons(self):
        left = FleetAggregate(duration_s=10.0)
        right = FleetAggregate(duration_s=20.0)
        with pytest.raises(AggregateError):
            left.merge(right)

    def test_merge_rejects_zero_horizon_with_observations(self):
        # Pre-fix, `self.duration_s or other.duration_s` let an
        # aggregate with data but duration 0 merge into anything; the
        # surviving horizon then silently skewed channel_utilisation.
        bogus = FleetAggregate(duration_s=0.0, beacons_sent=5,
                               airtime_s=0.25)
        target = FleetAggregate(shard_count=1, duration_s=20.0,
                                beacons_sent=3, airtime_s=0.1)
        with pytest.raises(AggregateError):
            target.merge(bogus)
        with pytest.raises(AggregateError):
            bogus.merge(FleetAggregate(shard_count=1, duration_s=20.0))

    def test_merge_identity_adopts_horizon(self):
        # The merge identity (a fresh FleetAggregate) must adopt the
        # other side's horizon on the first fold and contribute nothing
        # when folded in from the right.
        total = FleetAggregate()
        assert total.is_empty
        shard = FleetAggregate(shard_count=1, duration_s=30.0,
                               beacons_sent=2, airtime_s=0.01)
        total.merge(shard)
        assert total.duration_s == 30.0
        assert not total.is_empty
        total.merge(FleetAggregate())  # right identity: no-op
        assert total.beacons_sent == 2
        assert total.channel_utilisation == pytest.approx(0.01 / 30.0)

    def test_merge_empty_shard_keeps_strict_horizon_check(self):
        # A device-less shard still counted one shard over a horizon:
        # it is NOT the identity, so mismatched horizons must raise.
        empty_shard = FleetAggregate(shard_count=1, duration_s=10.0)
        assert not empty_shard.is_empty
        other = FleetAggregate(shard_count=1, duration_s=20.0,
                               beacons_sent=1)
        with pytest.raises(AggregateError):
            other.merge(empty_shard)
        same = FleetAggregate(shard_count=1, duration_s=10.0,
                              beacons_sent=1)
        same.merge(empty_shard)
        assert same.shard_count == 2

    def test_rates_guard_zero_denominators(self):
        empty = FleetAggregate()
        assert empty.delivery_rate == 0.0
        assert empty.collision_rate == 0.0
        assert empty.channel_utilisation == 0.0
        assert math.isinf(empty.battery_years())

    def test_histogram_merge_exact(self):
        first = MergeableHistogram.log_bins(1e-6, 1e-2, 8)
        second = MergeableHistogram.log_bins(1e-6, 1e-2, 8)
        values = [2e-6, 5e-5, 1e-3, 9e-3, 1e-7, 5e-2]
        for value in values[:3]:
            first.observe(value)
        for value in values[3:]:
            second.observe(value)
        reference = MergeableHistogram.log_bins(1e-6, 1e-2, 8)
        for value in values:
            reference.observe(value)
        first.merge(second)
        assert first.to_dict() == reference.to_dict()
        assert first.total == len(values)
        assert first.underflow == 1 and first.overflow == 1

    def test_histogram_rejects_mismatched_edges(self):
        first = MergeableHistogram.log_bins(1e-6, 1e-2, 8)
        second = MergeableHistogram.log_bins(1e-6, 1e-2, 9)
        with pytest.raises(AggregateError):
            first.merge(second)

    def test_histogram_rejects_bad_shapes(self):
        with pytest.raises(AggregateError):
            MergeableHistogram(edges=(1.0,))
        with pytest.raises(AggregateError):
            MergeableHistogram(edges=(1.0, 1.0))
        with pytest.raises(AggregateError):
            MergeableHistogram.log_bins(0.0, 1.0, 4)
        histogram = MergeableHistogram.log_bins(1e-6, 1e-2, 4)
        with pytest.raises(AggregateError):
            histogram.observe(float("nan"))

    def test_log_bins_pin_both_bounds_exactly(self):
        # log_bins used to compute the last edge as low * ratio**bins,
        # which lands a few ulps off `high` — classifying observe(high)
        # differently depending on rounding direction. Both documented
        # bounds must now be exact edges, for any (low, high, bins).
        for low, high, bins in ((1e-6, 1e-2, 8), (1e-6, 1e-2, 24),
                                (0.1, 1000.0, 7), (2.5e-5, 3.7e-1, 13)):
            histogram = MergeableHistogram.log_bins(low, high, bins)
            assert histogram.edges[0] == low
            assert histogram.edges[-1] == high
            assert len(histogram.edges) == bins + 1

    def test_log_bins_boundary_values_classify_deterministically(self):
        histogram = MergeableHistogram.log_bins(1e-6, 1e-2, 8)
        histogram.observe(1e-6)    # low bound: first bin (half-open)
        histogram.observe(1e-2)    # high bound: exactly the last edge
        histogram.observe(math.nextafter(1e-2, 0.0))  # just under high
        assert histogram.counts[0] == 1
        assert histogram.counts[-1] == 1
        assert histogram.overflow == 1
        assert histogram.underflow == 0

    def test_counters_equal_ignores_float_duration(self):
        # duration_s is a float: an ulp-level difference must not fail
        # the bit-identical integer-counter check...
        left = FleetAggregate(duration_s=600.0, beacons_sent=3)
        right = FleetAggregate(duration_s=math.nextafter(600.0, 601.0),
                               beacons_sent=3)
        assert counters_equal(left, right) == []
        # ...but moments_close still owns it, at its documented rel_tol.
        assert moments_close(left, right) == []
        far = FleetAggregate(duration_s=601.0, beacons_sent=3)
        assert "duration_s" in moments_close(left, far)
        assert counters_equal(left, far) == []


class TestFleetScaleExperiment:
    def test_point_records_metrics_and_rows(self):
        config = FleetConfig(device_count=30, area_m=(30.0, 30.0),
                             interval_s=30.0, duration_s=300.0, seed=2)
        point = run_fleet_point(config, shard_count=2)
        row = point.to_row()
        assert row["device_count"] == 30
        assert row["beacons_sent"] == point.aggregate.beacons_sent
        assert 0.0 <= row["delivery_rate"] <= 1.0
        assert point.density_per_ha == pytest.approx(30 / 0.09)

    def test_smoke_check_passes(self):
        aggregate, mismatches = run_fleet_smoke(
            device_count=40, shard_count=2, area_m=(40.0, 20.0),
            interval_s=30.0, duration_s=300.0)
        assert mismatches == []
        assert aggregate.beacons_sent > 0


class TestCli:
    @pytest.mark.parametrize("workers, tail", [
        (1, "MB (this process)"),
        (2, "MB (largest pool worker)"),
    ])
    def test_peak_memory_line_counts_pool_workers(self, workers, tail,
                                                  capsys):
        # With a pool the shards, and so the kernel's memory, live in
        # the workers, which the process's own peak does not count.
        from repro.fleet.__main__ import main
        assert main(["--devices", "40", "--area", "40", "20",
                     "--interval", "30", "--duration", "120",
                     "--shards", "2", "--workers", str(workers)]) == 0
        (line,) = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("peak memory")]
        assert line.endswith(tail)

    @pytest.mark.parametrize("flag, message", [
        ("--workers", "--workers must be >= 1, got 0"),
        ("--shards", "--shards must be >= 1, got 0"),
        ("--devices", "need at least one device, got 0"),
        ("--interval", "interval must be positive, got 0.0"),
        ("--duration", "duration must be positive, got 0.0"),
    ])
    def test_invalid_value_is_a_usage_error(self, flag, message, capsys):
        from repro.fleet.__main__ import main
        with pytest.raises(SystemExit) as exited:
            main([flag, "0"])
        assert exited.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == \
            f"python -m repro.fleet: error: {message}"
