"""End-to-end Wi-LE tests: device -> air -> monitor-mode receiver."""

import tracemalloc

import pytest

from repro.core import (
    DeviceKeyring,
    SensorKind,
    SensorReading,
    TwoWayResponder,
    WiLEDevice,
    WiLEReceiver,
    derive_device_key,
)
from repro.dot11.rates import OFDM_6
from repro.energy.esp32 import Esp32Recorder
from repro.sim import JitteryClock, Position, Simulator, WirelessMedium

NETWORK_KEY = b"network-master-key-!"


def build(device_kwargs=None, receiver_kwargs=None):
    sim = Simulator()
    medium = WirelessMedium(sim)
    device = WiLEDevice(sim, medium, device_id=0x1234,
                        position=Position(0, 0), **(device_kwargs or {}))
    receiver = WiLEReceiver(sim, medium, position=Position(3, 0),
                            **(receiver_kwargs or {}))
    return sim, medium, device, receiver


def temperature():
    return (SensorReading(SensorKind.TEMPERATURE_C, 17.0),)


class TestOneWay:
    def test_periodic_delivery(self):
        sim, _medium, device, receiver = build()
        device.start(10.0, temperature)
        sim.run(until_s=55.0)
        assert len(device.transmissions) == 5
        assert receiver.stats.decoded == 5
        assert receiver.latest_reading(0x1234, SensorKind.TEMPERATURE_C) == 17.0

    def test_sequence_numbers_increment(self):
        sim, _medium, device, receiver = build()
        device.start(5.0, temperature)
        # The deep-sleep timer restarts after each cycle, so wakes land
        # at 5.0, 10.35, 15.7 (interval + boot time per cycle).
        sim.run(until_s=17.0)
        sequences = [received.message.sequence for received in receiver.messages]
        assert sequences == [1, 2, 3]

    def test_device_never_transmits_anything_but_beacons(self):
        """The §4 invariant: no probes, no association, nothing else."""
        from repro.dot11 import Beacon
        from repro.mac import MonitorSniffer
        sim, medium, device, _receiver = build()
        sniffer = MonitorSniffer(sim, medium, position=Position(1, 1))
        device.start(5.0, temperature)
        sim.run(until_s=26.0)
        assert len(sniffer.captures) > 0
        assert all(isinstance(capture.frame, Beacon)
                   for capture in sniffer.captures)

    def test_receiver_keeps_nothing_it_hears(self):
        """Beside 80%-load background traffic the receiver hears
        thousands of 1,200-byte frames; none of them stays allocated."""
        from repro.experiments.contention import BackgroundTraffic
        sim = Simulator()
        medium = WirelessMedium(sim)
        BackgroundTraffic(sim, medium, 0.8)
        receiver = WiLEReceiver(sim, medium, position=Position(2.0, 0.0))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sim.run(until_s=1.0)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        heard = receiver.radio.frames_received
        assert heard > 1000
        assert kept / heard < 100

    def test_two_receivers_both_hear(self):
        sim, medium, device, first = build()
        second = WiLEReceiver(sim, medium, position=Position(0, 3))
        device.start(10.0, temperature)
        sim.run(until_s=21.0)
        assert first.stats.decoded == 2
        assert second.stats.decoded == 2

    def test_duplicate_suppression(self):
        sim, _medium, device, receiver = build()
        device.radio.power_on()
        message = device.build_message(temperature())
        beacon = device.template.build(message)
        device.inject(beacon)
        sim.run(until_s=0.1)
        device.inject(beacon)  # identical retransmission
        sim.run(until_s=0.2)
        assert receiver.stats.decoded == 1
        assert receiver.stats.duplicates == 1

    def test_receiver_ignores_foreign_beacons(self):
        from repro.mac import AccessPoint
        sim, medium, device, receiver = build()
        AccessPoint(sim, medium, ssid="Neighbours", passphrase="password1",
                    position=Position(1, 1), beaconing=True)
        device.start(5.0, temperature)
        sim.run(until_s=11.0)
        assert receiver.stats.beacons_seen > receiver.stats.wile_beacons
        assert receiver.stats.decoded == 2

    def test_stop_stops(self):
        sim, _medium, device, receiver = build()
        device.start(5.0, temperature)
        sim.schedule(12.0, device.stop)
        sim.run(until_s=60.0)
        assert len(device.transmissions) == 2

    def test_out_of_range_receiver_hears_nothing(self):
        sim, medium, device, _near = build()
        far = WiLEReceiver(sim, medium, position=Position(500, 0))
        device.start(5.0, temperature)
        sim.run(until_s=11.0)
        assert far.stats.decoded == 0

    def test_messages_from_and_devices_heard(self):
        sim, medium, device, receiver = build()
        other = WiLEDevice(sim, medium, device_id=0x9999,
                           position=Position(0, 1))
        device.start(5.0, temperature)
        other.start(7.0, lambda: (SensorReading(SensorKind.COUNTER, 3),))
        sim.run(until_s=22.0)
        assert receiver.devices_heard() == {0x1234, 0x9999}
        assert all(received.message.device_id == 0x9999
                   for received in receiver.messages_from(0x9999))


class TestEnergyAccounting:
    def test_table1_energy_per_packet(self):
        sim, _medium, device, _receiver = build()
        device.start(1.0, temperature)
        sim.run(until_s=2.0)
        record = device.transmissions[0]
        assert record.energy_j == pytest.approx(84e-6, rel=0.02)

    def test_slower_rate_costs_more(self):
        sim, _medium, fast, _receiver = build()
        medium2 = WirelessMedium(sim)
        slow = WiLEDevice(sim, medium2, device_id=2, rate=OFDM_6)
        fast.start(1.0, temperature)
        slow.start(1.0, temperature)
        sim.run(until_s=2.0)
        assert slow.transmissions[0].energy_j > fast.transmissions[0].energy_j

    def test_recorder_trace_has_duty_cycle_shape(self):
        sim, _medium, _device, _receiver = build()
        medium = WirelessMedium(sim)
        recorder = Esp32Recorder()
        device = WiLEDevice(sim, medium, device_id=3, recorder=recorder)
        device.start(2.0, temperature)
        sim.run(until_s=7.0)
        labels = recorder.trace.labels()
        assert labels[:3] == ["deep-sleep", "boot", "tx"]
        durations = recorder.trace.duration_by_label()
        assert durations["deep-sleep"] > durations["boot"] > durations["tx"]

    def test_high_power_costs_more(self):
        sim = Simulator()
        medium = WirelessMedium(sim)
        low = WiLEDevice(sim, medium, device_id=1, tx_power_dbm=0.0)
        high = WiLEDevice(sim, medium, device_id=2, tx_power_dbm=20.0)
        low.start(1.0, temperature)
        high.start(1.0, temperature)
        sim.run(until_s=2.0)
        assert (high.transmissions[0].energy_j
                > low.transmissions[0].energy_j)

    def test_jittery_clock_changes_schedule(self):
        sim = Simulator()
        medium = WirelessMedium(sim)
        device = WiLEDevice(sim, medium, device_id=1,
                            clock=JitteryClock(drift_ppm=10_000.0))
        device.start(1.0, temperature)
        sim.run(until_s=1.5)
        # 1 % slow clock: wake at 1.01 s (plus boot) not 1.0 s.
        assert device.transmissions[0].time_s == pytest.approx(
            1.01 + device.boot_time_s, abs=1e-6)


class TestEncryptedOperation:
    def test_keyed_receiver_decodes(self):
        key = derive_device_key(NETWORK_KEY, 0x1234)
        sim, _medium, device, receiver = build(
            device_kwargs={"key": key},
            receiver_kwargs={"keyring": DeviceKeyring(NETWORK_KEY)})
        device.start(5.0, temperature)
        sim.run(until_s=11.0)
        assert receiver.stats.decoded == 2
        assert receiver.latest_reading(0x1234, SensorKind.TEMPERATURE_C) == 17.0

    def test_keyless_receiver_counts_undecryptable(self):
        key = derive_device_key(NETWORK_KEY, 0x1234)
        sim, _medium, device, receiver = build(device_kwargs={"key": key})
        device.start(5.0, temperature)
        sim.run(until_s=11.0)
        assert receiver.stats.decoded == 0
        assert receiver.stats.undecryptable == 2

    def test_plaintext_never_on_air_when_keyed(self):
        from repro.mac import MonitorSniffer
        key = derive_device_key(NETWORK_KEY, 0x1234)
        sim, medium, device, _receiver = build(device_kwargs={"key": key})
        sniffer = MonitorSniffer(sim, medium, position=Position(1, 1))
        marker = SensorReading(SensorKind.RAW, b"VERY-SECRET-MARKER")
        device.start(5.0, lambda: (marker,))
        sim.run(until_s=6.0)
        for capture in sniffer.captures:
            assert b"VERY-SECRET-MARKER" not in capture.frame_bytes


class TestTwoWay:
    def test_command_delivered_in_window(self):
        sim = Simulator()
        medium = WirelessMedium(sim)
        device = WiLEDevice(sim, medium, device_id=0x77, rx_window_ms=20,
                            position=Position(0, 0))
        received = []
        device.downlink_callback = received.append
        receiver = WiLEReceiver(sim, medium, position=Position(2, 0))
        responder = TwoWayResponder(sim, medium, receiver,
                                    position=Position(2, 0))
        responder.queue_command(0x77, b"reboot")
        device.start(5.0, temperature)
        sim.run(until_s=12.0)
        assert len(responder.sent) == 1
        assert len(received) == 1
        assert bytes(received[0].readings[0].value) == b"reboot"

    def test_no_window_no_downlink(self):
        sim = Simulator()
        medium = WirelessMedium(sim)
        device = WiLEDevice(sim, medium, device_id=0x77, rx_window_ms=0)
        received = []
        device.downlink_callback = received.append
        receiver = WiLEReceiver(sim, medium, position=Position(2, 0))
        responder = TwoWayResponder(sim, medium, receiver,
                                    position=Position(2, 0))
        responder.queue_command(0x77, b"reboot")
        device.start(5.0, temperature)
        sim.run(until_s=12.0)
        assert not responder.sent
        assert not received
        assert responder.pending_for(0x77) == 1

    def test_commands_queue_across_windows(self):
        sim = Simulator()
        medium = WirelessMedium(sim)
        device = WiLEDevice(sim, medium, device_id=0x77, rx_window_ms=20)
        received = []
        device.downlink_callback = received.append
        receiver = WiLEReceiver(sim, medium, position=Position(2, 0))
        responder = TwoWayResponder(sim, medium, receiver,
                                    position=Position(2, 0))
        responder.queue_command(0x77, b"one")
        responder.queue_command(0x77, b"two")
        device.start(5.0, temperature)
        sim.run(until_s=17.0)
        assert [bytes(message.readings[0].value)
                for message in received] == [b"one", b"two"]

    def test_command_for_other_device_ignored(self):
        sim = Simulator()
        medium = WirelessMedium(sim)
        target = WiLEDevice(sim, medium, device_id=0x77, rx_window_ms=20,
                            position=Position(0, 0))
        bystander = WiLEDevice(sim, medium, device_id=0x88, rx_window_ms=20,
                               position=Position(0, 1))
        wrong = []
        bystander.downlink_callback = wrong.append
        receiver = WiLEReceiver(sim, medium, position=Position(2, 0))
        responder = TwoWayResponder(sim, medium, receiver,
                                    position=Position(2, 0))
        responder.queue_command(0x77, b"target-only")
        target.start(5.0, temperature)
        bystander.start(5.0, temperature)
        sim.run(until_s=12.0)
        assert not wrong
