"""Tests for device power models, Eq. 1, and battery life."""

import pytest

from repro.energy import calibration as cal
from repro.energy.average import (
    AveragePowerError,
    DutyCycleProfile,
    average_power_w,
    crossover_interval_s,
)
from repro.energy.battery import CR2032, TWO_AA_PACK, Battery, BatteryError
from repro.energy.cc2541 import Cc2541PowerModel
from repro.energy.esp32 import Esp32PowerModel, Esp32Recorder, Esp32State
from repro.energy.trace import CurrentTrace


class TestEsp32Model:
    def test_paper_stated_currents(self):
        model = Esp32PowerModel()
        assert model.current_a(Esp32State.DEEP_SLEEP) == pytest.approx(2.5e-6)
        assert model.current_a(Esp32State.LIGHT_SLEEP) == pytest.approx(0.8e-3)
        assert model.current_a(Esp32State.AUTO_LIGHT_SLEEP) == pytest.approx(5e-3)

    def test_power_uses_supply_voltage(self):
        model = Esp32PowerModel()
        assert model.power_w(Esp32State.TX_LOW) == pytest.approx(
            3.3 * model.current_a(Esp32State.TX_LOW))

    def test_states_are_ordered_sensibly(self):
        model = Esp32PowerModel()
        assert (model.current_a(Esp32State.DEEP_SLEEP)
                < model.current_a(Esp32State.LIGHT_SLEEP)
                < model.current_a(Esp32State.AUTO_LIGHT_SLEEP)
                < model.current_a(Esp32State.BOOT)
                < model.current_a(Esp32State.TX_LOW)
                < model.current_a(Esp32State.TX_HIGH))

    def test_recorder_builds_labelled_trace(self):
        recorder = Esp32Recorder()
        recorder.spend_at(0.0, 1.0, Esp32State.DEEP_SLEEP)
        recorder.spend_at(1.0, 0.1, Esp32State.TX_LOW, "tx")
        assert recorder.trace.labels() == ["deep-sleep", "tx"]
        assert recorder.energy_j() == pytest.approx(
            3.3 * (1.0 * 2.5e-6 + 0.1 * cal.ESP32_WIFI_TX_A))

    def test_recorder_ignores_nonpositive_spans(self):
        recorder = Esp32Recorder()
        recorder.spend_at(0.0, 0.0, Esp32State.BOOT)
        recorder.spend_at(0.0, -1.0, Esp32State.BOOT)
        assert len(recorder.trace) == 0


class TestCc2541Model:
    def test_energy_per_event_matches_table1(self):
        model = Cc2541PowerModel()
        assert model.energy_per_event_j() == pytest.approx(71e-6, rel=0.02)

    def test_sleep_current_matches_table1(self):
        assert Cc2541PowerModel().sleep_current_a == pytest.approx(1.1e-6)

    def test_event_duration_is_milliseconds(self):
        assert 1e-3 < Cc2541PowerModel().event_duration_s() < 10e-3

    def test_record_event_appends_all_phases(self):
        trace = CurrentTrace()
        model = Cc2541PowerModel()
        model.record_event(trace)
        assert len(trace) == len(model.event_phases)
        assert trace.energy_j(model.supply_voltage_v) == pytest.approx(
            model.energy_per_event_j())

    def test_average_current_approaches_sleep_floor(self):
        model = Cc2541PowerModel()
        assert model.average_current_a(3600.0) == pytest.approx(
            model.sleep_current_a, rel=0.05)

    def test_back_to_back_events(self):
        model = Cc2541PowerModel()
        busy = model.average_current_a(model.event_duration_s() / 2)
        assert busy == pytest.approx(
            model.event_charge_c() / model.event_duration_s())


class TestEquationOne:
    def test_hand_computed_value(self):
        # P_tx=1 W for 0.1 s, idle 1 mW, every 10 s:
        # (1*0.1 + 0.001*9.9)/10 = 0.01099 W.
        assert average_power_w(1.0, 0.1, 0.001, 10.0) == pytest.approx(0.01099)

    def test_degenerate_always_transmitting(self):
        assert average_power_w(1.0, 10.0, 0.0, 10.0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(AveragePowerError):
            average_power_w(1.0, 0.1, 0.001, 0.0)
        with pytest.raises(AveragePowerError):
            average_power_w(1.0, 11.0, 0.001, 10.0)
        with pytest.raises(AveragePowerError):
            average_power_w(-1.0, 0.1, 0.001, 10.0)


class TestDutyCycleProfile:
    def profile(self, energy=84e-6, t_tx=212e-6, idle=2.5e-6):
        return DutyCycleProfile("X", energy, t_tx, idle, 3.3)

    def test_p_tx_definition(self):
        profile = self.profile()
        assert profile.p_tx_w == pytest.approx(84e-6 / 212e-6)

    def test_average_power_decreases_with_interval(self):
        profile = self.profile()
        assert (profile.average_power_w(600.0)
                < profile.average_power_w(60.0)
                < profile.average_power_w(6.0))

    def test_idle_floor(self):
        profile = self.profile()
        assert profile.average_power_w(1e6) == pytest.approx(
            2.5e-6 * 3.3, rel=0.01)

    def test_sub_window_interval_clamps(self):
        profile = self.profile()
        assert profile.average_power_w(1e-6) == pytest.approx(profile.p_tx_w)

    def test_average_current(self):
        profile = self.profile()
        assert profile.average_current_a(60.0) == pytest.approx(
            profile.average_power_w(60.0) / 3.3)

    def test_validation(self):
        with pytest.raises(AveragePowerError):
            DutyCycleProfile("X", -1.0, 0.1, 0.0, 3.3)
        with pytest.raises(AveragePowerError):
            DutyCycleProfile("X", 1.0, 0.0, 0.0, 3.3)


class TestCrossover:
    def test_ps_dc_style_crossover(self):
        """Low-burst/high-idle crosses high-burst/low-idle exactly where
        algebra says."""
        ps = DutyCycleProfile("PS", 19.8e-3, 0.0777, 4.5e-3, 3.3)
        dc = DutyCycleProfile("DC", 238.2e-3, 1.6, 2.5e-6, 3.3)
        crossover = crossover_interval_s(ps, dc, low_s=2.0)
        # (238.2m - 19.8m) / (4.5m*3.3 - 2.5u*3.3) ~ 14.7 s.
        expected = (238.2e-3 - 19.8e-3) / (3.3 * (4.5e-3 - 2.5e-6))
        assert crossover == pytest.approx(expected, rel=0.01)

    def test_no_crossover_when_dominated(self):
        big = DutyCycleProfile("big", 1.0, 0.1, 1e-3, 3.3)
        small = DutyCycleProfile("small", 1e-6, 1e-4, 1e-9, 3.3)
        assert crossover_interval_s(big, small) is None


class TestBattery:
    def test_cr2032_life_at_known_load(self):
        # 225 mAh * 0.9 usable at ~10 uA -> about 2.3 years.
        years = CR2032.life_years(10e-6)
        assert 2.0 < years < 2.6

    def test_self_discharge_bounds_life(self):
        # Even at zero load, self-discharge caps the lifetime.
        assert CR2032.life_years(0.0) < 120.0

    def test_higher_load_shorter_life(self):
        assert CR2032.life_hours(1e-3) < CR2032.life_hours(1e-6)

    def test_bigger_battery_longer_life(self):
        assert TWO_AA_PACK.life_hours(1e-4) > CR2032.life_hours(1e-4)

    def test_validation(self):
        with pytest.raises(BatteryError):
            Battery("bad", capacity_mah=0.0, nominal_voltage_v=3.0)
        with pytest.raises(BatteryError):
            Battery("bad", 100.0, 3.0, self_discharge_per_year=1.5)
        with pytest.raises(BatteryError):
            CR2032.life_hours(-1.0)


class TestCalibrationTargets:
    """Guard rails: the paper's targets encoded in calibration.py."""

    def test_table1_targets_present(self):
        assert set(cal.PAPER_ENERGY_PER_PACKET_J) == {
            "Wi-LE", "BLE", "WiFi-DC", "WiFi-PS"}
        assert cal.PAPER_ENERGY_PER_PACKET_J["Wi-LE"] == pytest.approx(84e-6)
        assert cal.PAPER_IDLE_CURRENT_A["WiFi-PS"] == pytest.approx(4.5e-3)

    def test_frame_count_targets(self):
        assert cal.PAPER_MAC_FRAME_COUNT == 20
        assert cal.PAPER_HIGHER_LAYER_FRAME_COUNT == 7

    def test_figure3_phase_budget(self):
        # Boot + assoc + net should land near Figure 3a's ~1.6 s active
        # window (0.2 s to ~1.8 s).
        active = (cal.WIFI_DC_BOOT_S + cal.WIFI_DC_ASSOC_S + cal.WIFI_DC_NET_S
                  + cal.WIFI_DC_TEARDOWN_S)
        assert 1.4 < active < 1.8
