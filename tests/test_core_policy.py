"""Tests for adaptive reporting policies (repro.core.policy)."""

import pytest

from repro.core import (
    DeltaTriggeredReporter,
    PolicyError,
    SensorKind,
    SensorReading,
    WiLEDevice,
    WiLEReceiver,
)
from repro.sim import Position, Simulator, WirelessMedium


def reading(value):
    return (SensorReading(SensorKind.TEMPERATURE_C, value),)


class TestDeltaTriggeredReporter:
    def test_first_wake_always_sends(self):
        reporter = DeltaTriggeredReporter(lambda: reading(20.0), threshold=0.5)
        assert reporter() is not None

    def test_unchanged_suppressed(self):
        reporter = DeltaTriggeredReporter(lambda: reading(20.0), threshold=0.5)
        reporter()
        assert reporter() is None
        assert reporter.stats.suppressed == 1

    def test_change_above_threshold_sends(self):
        values = iter([20.0, 20.1, 20.7])
        reporter = DeltaTriggeredReporter(lambda: reading(next(values)),
                                          threshold=0.5)
        assert reporter() is not None   # 20.0 baseline
        assert reporter() is None       # +0.1 < threshold
        assert reporter() is not None   # 20.7 vs last-sent 20.0 -> 0.7

    def test_delta_measured_from_last_sent_not_last_read(self):
        """Creep: many sub-threshold steps must eventually trigger."""
        values = iter([20.0, 20.3, 20.6])
        reporter = DeltaTriggeredReporter(lambda: reading(next(values)),
                                          threshold=0.5)
        reporter()
        assert reporter() is None
        assert reporter() is not None  # 20.6 - 20.0 >= 0.5

    def test_heartbeat_fires(self):
        reporter = DeltaTriggeredReporter(lambda: reading(20.0),
                                          threshold=0.5, heartbeat_every=3)
        results = [reporter() for _ in range(7)]
        sent = [result is not None for result in results]
        # wake 1 sends (baseline), then every 3rd wake after a send.
        assert sent == [True, False, False, True, False, False, True]
        assert reporter.stats.heartbeats == 2

    def test_raw_readings_always_send(self):
        reporter = DeltaTriggeredReporter(
            lambda: (SensorReading(SensorKind.RAW, b"event"),), threshold=1.0)
        assert reporter() is not None
        assert reporter() is not None

    def test_multiple_kinds_any_change_triggers(self):
        values = iter([(20.0, 50.0), (20.0, 50.0), (20.0, 55.0)])

        def source():
            temperature, humidity = next(values)
            return (SensorReading(SensorKind.TEMPERATURE_C, temperature),
                    SensorReading(SensorKind.HUMIDITY_PCT, humidity))

        reporter = DeltaTriggeredReporter(source, threshold=1.0)
        assert reporter() is not None
        assert reporter() is None
        assert reporter() is not None  # humidity moved

    def test_stats_consistency(self):
        values = iter([20.0, 20.0, 25.0, 25.0, 25.0])
        reporter = DeltaTriggeredReporter(lambda: reading(next(values)),
                                          threshold=1.0, heartbeat_every=100)
        for _ in range(5):
            reporter()
        stats = reporter.stats
        assert stats.wakes == 5
        assert stats.transmitted + stats.suppressed == stats.wakes
        assert stats.suppression_rate == pytest.approx(3 / 5)

    def test_validation(self):
        with pytest.raises(PolicyError):
            DeltaTriggeredReporter(lambda: (), threshold=-1.0)
        with pytest.raises(PolicyError):
            DeltaTriggeredReporter(lambda: (), threshold=1.0,
                                   heartbeat_every=0)


class TestDeviceIntegration:
    def test_suppressed_wakes_skip_boot(self):
        from repro.energy.esp32 import Esp32Recorder
        sim = Simulator()
        medium = WirelessMedium(sim)
        recorder = Esp32Recorder()
        device = WiLEDevice(sim, medium, device_id=1, recorder=recorder,
                            position=Position(0, 0))
        receiver = WiLEReceiver(sim, medium, position=Position(2, 0))
        reporter = DeltaTriggeredReporter(lambda: reading(20.0),
                                          threshold=0.5, heartbeat_every=100)
        device.start(1.0, reporter)
        sim.run(until_s=6.0)
        assert len(device.transmissions) == 1
        assert device.skipped_wakes >= 3
        assert receiver.stats.decoded == 1
        labels = recorder.trace.duration_by_label()
        assert "ulp-check" in labels
        # Suppressed wakes spend 2 ms in ULP, no boot.
        assert labels["boot"] == pytest.approx(0.35)

    def test_ulp_energy_is_negligible(self):
        from repro.energy import calibration as cal
        ulp_j = cal.ULP_CHECK_S * cal.ESP32_ULP_ACTIVE_A * cal.SUPPLY_VOLTAGE_V
        boot_j = cal.WILE_BOOT_S * cal.ESP32_BOOT_A * cal.SUPPLY_VOLTAGE_V
        assert ulp_j < boot_j / 10_000

    def test_set_interval(self):
        sim = Simulator()
        medium = WirelessMedium(sim)
        device = WiLEDevice(sim, medium, device_id=1, position=Position(0, 0))
        device.start(10.0, lambda: reading(20.0))
        device.set_interval(100.0)
        assert device.interval_s == 100.0
        with pytest.raises(ValueError):
            device.set_interval(0.0)


class TestAdaptiveExperiment:
    def test_delta_saves_energy_without_losing_liveness(self):
        from repro.experiments.adaptive import run_adaptive
        fixed, delta = run_adaptive(wake_interval_s=60.0,
                                    horizon_s=3600.0)
        assert delta.transmissions < fixed.transmissions / 2
        assert delta.average_current_a < fixed.average_current_a / 2
        # Heartbeats keep some traffic flowing.
        assert delta.messages_delivered > 3

    def test_boot_dominates_tx(self):
        from repro.experiments.adaptive import boot_vs_tx_energy
        boot_j, tx_j, ulp_j = boot_vs_tx_energy()
        assert boot_j > 100 * tx_j
        assert tx_j > 10 * ulp_j
