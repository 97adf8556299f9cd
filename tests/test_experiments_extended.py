"""Tests for the contention, 5 GHz, and scheduling experiments."""

import pytest

from repro.experiments.band_5ghz import (
    band_range_table,
    run_congestion_escape,
)
from repro.experiments.contention import (
    BackgroundTraffic,
    run_contention_point,
)
from repro.experiments.scheduling import (
    expected_random_delivery,
    run_scheduling,
)
from repro.sim import Simulator, WirelessMedium


class TestBackgroundTraffic:
    def test_duty_cycle_approximates_load(self):
        sim = Simulator()
        medium = WirelessMedium(sim)
        traffic = BackgroundTraffic(sim, medium, offered_load=0.5, seed=1)
        sim.run(until_s=2.0)
        airtime_per_frame = traffic._airtime_s
        busy_fraction = traffic.frames_sent * airtime_per_frame / 2.0
        assert busy_fraction == pytest.approx(0.5, rel=0.1)

    def test_zero_load_sends_nothing(self):
        sim = Simulator()
        medium = WirelessMedium(sim)
        traffic = BackgroundTraffic(sim, medium, offered_load=0.0)
        sim.run(until_s=1.0)
        assert traffic.frames_sent == 0

    def test_load_bounds(self):
        sim = Simulator()
        medium = WirelessMedium(sim)
        with pytest.raises(ValueError):
            BackgroundTraffic(sim, medium, offered_load=0.99)


class TestContention:
    def test_clean_channel_everything_arrives(self):
        point = run_contention_point(0.0, carrier_sense=False, rounds=10)
        assert point.delivery_rate == 1.0

    def test_raw_injection_degrades_with_load(self):
        light = run_contention_point(0.2, carrier_sense=False, rounds=20)
        heavy = run_contention_point(0.6, carrier_sense=False, rounds=20)
        assert heavy.delivery_rate < light.delivery_rate < 1.0

    def test_carrier_sense_recovers_delivery(self):
        raw = run_contention_point(0.5, carrier_sense=False, rounds=20)
        polite = run_contention_point(0.5, carrier_sense=True, rounds=20)
        assert polite.delivery_rate > raw.delivery_rate + 0.2

    def test_carrier_sense_pays_in_access_delay(self):
        clean = run_contention_point(0.0, carrier_sense=True, rounds=10)
        busy = run_contention_point(0.5, carrier_sense=True, rounds=10)
        assert busy.mean_access_delay_s > clean.mean_access_delay_s
        assert busy.max_access_delay_s >= busy.mean_access_delay_s


class TestBand5GHz:
    def test_range_penalty_uniform(self):
        rows = band_range_table()
        for row in rows:
            assert row.range_2_4ghz_m > row.range_5ghz_m
            assert row.penalty == pytest.approx(1.65, rel=0.05)

    def test_congestion_escape(self):
        escape = run_congestion_escape(load=0.7, rounds=20)
        assert escape.rate_5ghz == 1.0
        assert escape.rate_2_4ghz < 0.7
        assert escape.delivered_on_5ghz > escape.delivered_on_2_4ghz


class TestScheduling:
    @pytest.fixture(scope="class")
    def results(self):
        return {result.policy: result
                for result in run_scheduling(device_count=16, rounds=20,
                                             interval_s=0.2)}

    def test_synchronised_is_worst(self, results):
        assert (results["synchronised"].delivery_rate
                < results["random"].delivery_rate)
        assert (results["synchronised"].delivery_rate
                < results["slotted"].delivery_rate)

    def test_synchronised_improves_over_time(self, results):
        """The §6 jitter-separation claim, seen through the policy lens."""
        sync = results["synchronised"]
        assert sync.late_rate > sync.early_rate

    def test_random_matches_analytic(self, results):
        analytic = expected_random_delivery(16, 0.2)
        assert results["random"].delivery_rate == pytest.approx(
            analytic, abs=0.05)

    def test_slotted_is_near_perfect(self, results):
        assert results["slotted"].delivery_rate > 0.97

    def test_unknown_policy_rejected(self):
        from repro.experiments.scheduling import _run_fleet
        with pytest.raises(ValueError):
            _run_fleet("psychic", 2, 2, 1.0, 0)
