"""Tests for the fleet gateway and scheduling policies."""

import pytest

from repro.core import (
    RandomPhase,
    SchedulerError,
    SensorKind,
    SensorReading,
    SlottedPhase,
    WiLEDevice,
    WiLEGateway,
    collision_probability,
)
from repro.core.gateway import _sequence_gap
from repro.sim import Position, Simulator, WirelessMedium

READING = (SensorReading(SensorKind.TEMPERATURE_C, 17.0),)


def build_fleet(count=3, interval_s=5.0):
    sim = Simulator()
    medium = WirelessMedium(sim)
    gateway = WiLEGateway(sim, medium, position=Position(3, 0))
    devices = []
    for index in range(count):
        device = WiLEDevice(sim, medium, device_id=0x300 + index,
                            position=Position(0, float(index)))
        device.start(interval_s, lambda: READING,
                     first_wake_s=0.5 + 0.1 * index)
        devices.append(device)
    return sim, medium, gateway, devices


class TestSequenceGap:
    def test_consecutive(self):
        assert _sequence_gap(5, 6) == 0

    def test_missed_two(self):
        assert _sequence_gap(5, 8) == 2

    def test_wraparound(self):
        assert _sequence_gap(0xFFFF, 1) == 1

    def test_same_sequence(self):
        assert _sequence_gap(5, 5) == 0


class TestRegistry:
    def test_discovers_devices(self):
        sim, _medium, gateway, _devices = build_fleet()
        sim.run(until_s=30.0)
        assert gateway.devices() == [0x300, 0x301, 0x302]

    def test_counts_messages(self):
        sim, _medium, gateway, devices = build_fleet(count=1)
        sim.run(until_s=30.0)
        record = gateway.record(0x300)
        assert record.messages_received == len(devices[0].transmissions)
        assert record.messages_missed == 0
        assert record.loss_rate == 0.0

    def test_learns_interval(self):
        sim, _medium, gateway, devices = build_fleet(count=1, interval_s=5.0)
        sim.run(until_s=40.0)
        learned = gateway.record(0x300).learned_interval_s
        # Interval + boot time per cycle.
        assert learned == pytest.approx(5.0 + devices[0].boot_time_s, rel=0.02)

    def test_detects_missed_messages(self):
        """Kill the device's radio link for a while: sequence gaps show
        up as missed messages."""
        sim, medium, gateway, devices = build_fleet(count=1, interval_s=2.0)
        sim.run(until_s=10.0)
        # Detune the gateway's receiver for ~3 cycles.
        gateway.receiver.set_channel(11)
        sim.run(until_s=17.0)
        gateway.receiver.set_channel(6)
        sim.run(until_s=30.0)
        record = gateway.record(0x300)
        assert record.messages_missed >= 2
        assert 0.0 < record.loss_rate < 0.5

    def test_liveness(self):
        sim, _medium, gateway, devices = build_fleet(count=2, interval_s=2.0)
        sim.run(until_s=15.0)
        assert gateway.alive_devices() == [0x300, 0x301]
        devices[0].stop()
        sim.run(until_s=40.0)
        assert gateway.dead_devices() == [0x300]
        assert gateway.alive_devices() == [0x301]

    def test_fleet_loss_rate(self):
        sim, _medium, gateway, _devices = build_fleet()
        sim.run(until_s=30.0)
        assert gateway.fleet_loss_rate() == 0.0

    def test_summary_rows(self):
        sim, _medium, gateway, _devices = build_fleet(count=2)
        sim.run(until_s=20.0)
        rows = gateway.summary()
        assert len(rows) == 2
        device_id, received, missed, interval, alive = rows[0]
        assert device_id == 0x300 and received >= 2 and missed == 0 and alive

    def test_validation(self):
        sim = Simulator()
        medium = WirelessMedium(sim)
        with pytest.raises(ValueError):
            WiLEGateway(sim, medium, interval_history=0)


class TestRandomPhase:
    def test_within_interval(self):
        policy = RandomPhase(10.0, seed=1)
        for device_id in range(50):
            assert 0.0 <= policy.first_wake_s(device_id) <= 10.0

    def test_validation(self):
        with pytest.raises(SchedulerError):
            RandomPhase(0.0)


class TestSlottedPhase:
    def test_slot_is_deterministic(self):
        policy = SlottedPhase(10.0, slots=16)
        assert policy.slot_of(42) == policy.slot_of(42)

    def test_wake_is_slot_centre(self):
        policy = SlottedPhase(16.0, slots=16)
        slot = policy.slot_of(42)
        assert policy.first_wake_s(42) == pytest.approx((slot + 0.5) * 1.0)

    def test_assign_resolves_conflicts(self):
        policy = SlottedPhase(10.0, slots=64)
        device_ids = list(range(60))
        assignment = policy.assign(device_ids)
        assert len(set(assignment.values())) == len(device_ids)
        assert all(0 <= slot < 64 for slot in assignment.values())

    def test_assign_is_deterministic(self):
        policy = SlottedPhase(10.0, slots=32)
        ids = [5, 9, 100, 7]
        assert policy.assign(ids) == policy.assign(list(reversed(ids)))

    def test_assign_overflow_rejected(self):
        policy = SlottedPhase(10.0, slots=4)
        with pytest.raises(SchedulerError):
            policy.assign(list(range(5)))

    def test_assign_duplicates_rejected(self):
        policy = SlottedPhase(10.0, slots=4)
        with pytest.raises(SchedulerError):
            policy.assign([1, 1])

    def test_wake_for_slot_bounds(self):
        policy = SlottedPhase(10.0, slots=4)
        with pytest.raises(SchedulerError):
            policy.wake_for_slot(4)

    def test_validation(self):
        with pytest.raises(SchedulerError):
            SlottedPhase(0.0, slots=4)
        with pytest.raises(SchedulerError):
            SlottedPhase(10.0, slots=0)


class TestCollisionProbability:
    def test_zero_for_single_device(self):
        assert collision_probability(1, 10.0, 1e-4) == 0.0

    def test_grows_with_density(self):
        assert (collision_probability(10, 10.0, 1e-4)
                < collision_probability(50, 10.0, 1e-4))

    def test_grows_with_window(self):
        assert (collision_probability(10, 10.0, 1e-4)
                < collision_probability(10, 10.0, 1e-2))

    def test_saturates_at_one(self):
        assert collision_probability(100, 1.0, 1.0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(SchedulerError):
            collision_probability(-1, 10.0, 1e-4)
        with pytest.raises(SchedulerError):
            collision_probability(5, 0.0, 1e-4)
