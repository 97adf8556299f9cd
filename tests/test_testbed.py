"""Tests for the simulated lab equipment (repro.testbed)."""

import hashlib

import pytest

from repro.energy.trace import CurrentTrace
from repro.testbed import MAX_SAMPLE_RATE_HZ, Keysight34465A, MultimeterError


def bench_trace():
    trace = CurrentTrace()
    trace.append(0.1, 2.5e-6, "sleep")
    trace.append(0.05, 0.120, "tx")
    trace.append(0.1, 2.5e-6, "sleep")
    return trace


class TestMultimeter:
    def test_50ks_default(self):
        assert Keysight34465A().sample_rate_hz == MAX_SAMPLE_RATE_HZ

    def test_rate_bounds(self):
        with pytest.raises(MultimeterError):
            Keysight34465A(sample_rate_hz=60_000.0)
        with pytest.raises(MultimeterError):
            Keysight34465A(sample_rate_hz=0.0)

    def test_acquisition_sample_count(self):
        reading = Keysight34465A().acquire(bench_trace())
        assert len(reading.times_s) == pytest.approx(0.25 * 50_000, abs=2)

    def test_charge_matches_exact_integral(self):
        trace = bench_trace()
        reading = Keysight34465A().acquire(trace)
        assert reading.charge_c() == pytest.approx(trace.charge_c(), rel=1e-3)

    def test_energy(self):
        reading = Keysight34465A().acquire(bench_trace())
        assert reading.energy_j(3.3) == pytest.approx(
            3.3 * reading.charge_c())

    def test_peak_and_average(self):
        reading = Keysight34465A().acquire(bench_trace())
        assert reading.peak_current_a() == pytest.approx(0.120)
        assert reading.average_current_a() < 0.120

    def test_range_selection(self):
        range_a, _gain, _offset = Keysight34465A.select_range(0.05)
        assert range_a == 0.1
        range_a, _gain, _offset = Keysight34465A.select_range(50e-6)
        assert range_a == 100e-6

    def test_over_range_rejected(self):
        with pytest.raises(MultimeterError):
            Keysight34465A.select_range(5.0)

    def test_noise_mode_stays_close(self):
        trace = bench_trace()
        noisy = Keysight34465A(noise=True, seed=1).acquire(trace)
        assert noisy.charge_c() == pytest.approx(trace.charge_c(), rel=0.02)

    def test_noise_is_reproducible(self):
        trace = bench_trace()
        first = Keysight34465A(noise=True, seed=5).acquire(trace)
        second = Keysight34465A(noise=True, seed=5).acquire(trace)
        assert first.charge_c() == second.charge_c()

    def test_noise_stream_is_pinned(self):
        # The meter builds its generator at its first noisy acquisition:
        # the stream must start at the seed and skip no draw, so two
        # acquisitions read what a generator built with the meter gave.
        meter = Keysight34465A(noise=True, seed=5)
        trace = bench_trace()
        digests = [hashlib.sha256(meter.acquire(trace).currents_a.tobytes())
                   .hexdigest() for _ in range(2)]
        assert digests == [
            "c16faee64260ec3970391521ad482db720edcdffb8b06ef3d55585a3aed67183",
            "27bc2051cc258334f93a227659623c6d062179c1da69f44ba70f61c44d5f437b"]

    def test_windowed_acquisition(self):
        reading = Keysight34465A().acquire(bench_trace(), t0_s=0.1, t1_s=0.15)
        assert reading.average_current_a() == pytest.approx(0.120, rel=1e-6)
