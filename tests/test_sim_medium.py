"""Tests for the wireless medium and radio model (collisions, filtering)."""

import pytest

from repro.dot11 import Ack, Beacon, DataFrame, MacAddress, Ssid
from repro.dot11.rates import HT_MCS7_SGI, OFDM_6, OFDM_24
from repro.sim import (
    MediumError,
    Position,
    Radio,
    RadioState,
    Simulator,
    WirelessMedium,
)

A = MacAddress.parse("02:00:00:00:00:0a")
B = MacAddress.parse("02:00:00:00:00:0b")
C = MacAddress.parse("02:00:00:00:00:0c")


def setup(positions=((0.0, 0.0), (2.0, 0.0))):
    sim = Simulator()
    medium = WirelessMedium(sim)
    macs = (A, B, C)
    radios = [Radio(sim, medium, macs[index], position=Position(*pos),
                    default_power_dbm=20.0)
              for index, pos in enumerate(positions)]
    return sim, medium, radios


def beacon(source=A):
    return Beacon(source=source, bssid=source, elements=(Ssid.named("t"),))


class TestDelivery:
    def test_broadcast_beacon_reaches_listener(self):
        sim, medium, (tx, rx) = setup()
        received = []
        rx.rx_callback = lambda frame, t: received.append(frame)
        tx.power_on()
        rx.power_on()
        tx.transmit(beacon(), OFDM_24)
        sim.run()
        assert len(received) == 1
        assert isinstance(received[0], Beacon)
        assert medium.frames_delivered == 1

    def test_sender_does_not_hear_itself(self):
        sim, _medium, (tx, _rx) = setup()
        echoes = []
        tx.rx_callback = lambda frame, t: echoes.append(frame)
        tx.power_on()
        tx.transmit(beacon(), OFDM_24)
        sim.run()
        assert not echoes

    def test_out_of_range_lost(self):
        sim, medium, (tx, rx) = setup(positions=((0, 0), (5000.0, 0)))
        received = []
        rx.rx_callback = lambda frame, t: received.append(frame)
        tx.power_on()
        rx.power_on()
        tx.transmit(beacon(), HT_MCS7_SGI)
        sim.run()
        assert not received
        assert medium.frames_lost_snr == 1

    def test_radio_off_hears_nothing(self):
        sim, medium, (tx, rx) = setup()
        received = []
        rx.rx_callback = lambda frame, t: received.append(frame)
        tx.power_on()
        tx.transmit(beacon(), OFDM_24)
        sim.run()
        assert not received

    def test_channel_mismatch(self):
        sim, _medium, (tx, rx) = setup()
        received = []
        rx.rx_callback = lambda frame, t: received.append(frame)
        rx.set_channel(11)
        tx.power_on()
        rx.power_on()
        tx.transmit(beacon(), OFDM_24)
        sim.run()
        assert not received

    def test_slower_rate_reaches_further(self):
        """Same geometry: OFDM-6 decodes where MCS7 cannot."""
        for rate, expected in ((HT_MCS7_SGI, 0), (OFDM_6, 1)):
            sim, _medium, (tx, rx) = setup(positions=((0, 0), (120.0, 0)))
            received = []
            rx.rx_callback = lambda frame, t: received.append(frame)
            tx.power_on()
            rx.power_on()
            tx.transmit(beacon(), rate)
            sim.run()
            assert len(received) == expected, rate.name


class TestAddressFilter:
    def test_unicast_to_me_passes(self):
        sim, _medium, (tx, rx) = setup()
        received = []
        rx.rx_callback = lambda frame, t: received.append(frame)
        tx.power_on()
        rx.power_on()
        tx.transmit(Ack(receiver=B), OFDM_24)
        sim.run()
        assert len(received) == 1

    def test_unicast_to_other_filtered(self):
        sim, _medium, (tx, rx) = setup()
        received = []
        rx.rx_callback = lambda frame, t: received.append(frame)
        tx.power_on()
        rx.power_on()
        tx.transmit(Ack(receiver=C), OFDM_24)
        sim.run()
        assert not received

    def test_monitor_mode_sees_everything(self):
        sim, _medium, (tx, rx) = setup()
        received = []
        rx.rx_callback = lambda frame, t: received.append(frame)
        tx.power_on()
        rx.power_on(monitor=True)
        tx.transmit(Ack(receiver=C), OFDM_24)
        sim.run()
        assert len(received) == 1

    def test_data_frame_filter_uses_final_destination(self):
        sim, _medium, (tx, rx) = setup()
        received = []
        rx.rx_callback = lambda frame, t: received.append(frame)
        tx.power_on()
        rx.power_on()
        # to_ds frame whose final destination is broadcast: passes.
        frame = DataFrame(destination=MacAddress.broadcast(), source=A,
                          bssid=C, payload=b"", to_ds=True)
        tx.transmit(frame, OFDM_24)
        sim.run()
        assert len(received) == 1


class TestCollisions:
    def test_equidistant_overlap_destroys_both(self):
        sim, medium, (first, second, rx) = setup(
            positions=((0.0, 1.0), (0.0, -1.0), (10.0, 0.0)))
        received = []
        rx.rx_callback = lambda frame, t: received.append(frame)
        for radio in (first, second, rx):
            radio.power_on()
        first.transmit(beacon(A), OFDM_6)
        second.transmit(beacon(B), OFDM_6)
        sim.run()
        assert not received
        assert medium.frames_lost_collision == 2

    def test_capture_of_much_stronger_signal(self):
        # One transmitter sits next to the receiver, the other far away:
        # physical-layer capture decodes the strong one.
        sim, medium, (near, far, rx) = setup(
            positions=((9.5, 0.0), (0.0, 0.0), (10.0, 0.0)))
        received = []
        rx.rx_callback = lambda frame, t: received.append(frame)
        for radio in (near, far, rx):
            radio.power_on()
        near.transmit(beacon(A), OFDM_6)
        far.transmit(beacon(B), OFDM_6)
        sim.run()
        assert [frame.source for frame in received] == [A]

    def test_non_overlapping_sequential_frames_both_arrive(self):
        sim, _medium, (first, second, rx) = setup(
            positions=((0.0, 1.0), (0.0, -1.0), (5.0, 0.0)))
        received = []
        rx.rx_callback = lambda frame, t: received.append(frame)
        for radio in (first, second, rx):
            radio.power_on()
        first.transmit(beacon(A), OFDM_24)
        sim.schedule(0.01, lambda: second.transmit(beacon(B), OFDM_24))
        sim.run()
        assert len(received) == 2

    def test_busy_flag_during_transmission(self):
        sim, medium, (tx, _rx) = setup()
        tx.power_on()
        tx.transmit(beacon(), OFDM_6)
        assert medium.channel_busy(6)
        assert medium.busy_until_s(6) > sim.now_s
        sim.run()
        assert not medium.channel_busy(6)


class TestRadioStates:
    def test_tx_state_during_airtime(self):
        sim, _medium, (tx, _rx) = setup()
        tx.power_on()
        tx.transmit(beacon(), OFDM_6)
        assert tx.state is RadioState.TX
        sim.run()
        assert tx.state is RadioState.IDLE

    def test_cannot_transmit_while_off(self):
        _sim, _medium, (tx, _rx) = setup()
        with pytest.raises(MediumError):
            tx.transmit(beacon(), OFDM_6)

    def test_cannot_transmit_while_transmitting(self):
        sim, _medium, (tx, _rx) = setup()
        tx.power_on()
        tx.transmit(beacon(), OFDM_6)
        with pytest.raises(MediumError):
            tx.transmit(beacon(), OFDM_6)

    def test_bad_channel_rejected(self):
        _sim, _medium, (tx, _rx) = setup()
        with pytest.raises(MediumError):
            tx.set_channel(0)

    def test_double_attach_rejected(self):
        sim, medium, (tx, _rx) = setup()
        with pytest.raises(MediumError):
            medium.attach(tx)

    def test_frame_counters(self):
        sim, _medium, (tx, rx) = setup()
        tx.power_on()
        rx.power_on()
        tx.transmit(beacon(), OFDM_24)
        sim.run()
        assert tx.frames_sent == 1
        assert rx.frames_received == 1


class TestDeliveryListeners:
    def test_listeners_called_in_attach_order(self):
        sim, medium, (first, second, tx) = setup(
            positions=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)))
        order = []
        medium.add_delivery_listener(
            lambda transmission, report: order.append(report.receiver))
        # Power on in reverse attach order: reports must still follow
        # attach order, not power-on order.
        second.power_on()
        first.power_on()
        tx.power_on()
        tx.transmit(beacon(C), OFDM_24)
        sim.run()
        assert order == [first, second]

    def test_every_listener_sees_every_report(self):
        sim, medium, (tx, rx) = setup()
        first, second = [], []
        medium.add_delivery_listener(
            lambda transmission, report: first.append(report))
        medium.add_delivery_listener(
            lambda transmission, report: second.append(report))
        tx.power_on()
        rx.power_on()
        tx.transmit(beacon(), OFDM_24)
        sim.run()
        assert first == second
        assert len(first) == 1 and first[0].delivered

    def test_report_carries_loss_reason(self):
        sim, medium, (first, second, rx) = setup(
            positions=((0.0, 1.0), (0.0, -1.0), (10.0, 0.0)))
        reasons = []
        medium.add_delivery_listener(
            lambda transmission, report: reasons.append(report.reason))
        for radio in (first, second, rx):
            radio.power_on()
        first.transmit(beacon(A), OFDM_6)
        second.transmit(beacon(B), OFDM_6)
        sim.run()
        assert reasons == ["collision", "collision"]


class TestBusyUntil:
    def test_busy_until_tracks_longest_overlapping_frame(self):
        sim, medium, (first, second, _rx) = setup(
            positions=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)))
        first.power_on()
        second.power_on()
        # A short frame at a fast rate, then a long one at a slow rate:
        # the channel stays busy until the slow frame ends.
        short = first.transmit(beacon(A), HT_MCS7_SGI)
        long = second.transmit(beacon(B), OFDM_6)
        assert long.end_s > short.end_s
        assert medium.busy_until_s(6) == long.end_s
        sim.run(until_s=(short.end_s + long.end_s) / 2)
        assert medium.channel_busy(6)
        assert medium.busy_until_s(6) == long.end_s
        sim.run()
        assert medium.busy_until_s(6) == sim.now_s

    def test_busy_until_is_per_channel(self):
        sim, medium, (tx, other, _rx) = setup(
            positions=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)))
        other.set_channel(11)
        tx.power_on()
        other.power_on()
        tx.transmit(beacon(), OFDM_6)
        assert medium.channel_busy(6)
        assert not medium.channel_busy(11)
        assert medium.busy_until_s(11) == sim.now_s
        sim.run()


class TestRangeCutoff:
    def test_beyond_max_range_no_report_at_all(self):
        sim = Simulator()
        medium = WirelessMedium(sim, max_range_m=50.0)
        tx = Radio(sim, medium, A, position=Position(0.0, 0.0),
                   default_power_dbm=20.0)
        rx = Radio(sim, medium, B, position=Position(60.0, 0.0),
                   default_power_dbm=20.0)
        reports = []
        medium.add_delivery_listener(
            lambda transmission, report: reports.append(report))
        tx.power_on()
        rx.power_on()
        tx.transmit(beacon(), OFDM_6)
        sim.run()
        # OFDM-6 at 20 dBm decodes well past 60 m, but the hard cutoff
        # removes the receiver from consideration entirely.
        assert not reports
        assert medium.frames_delivered == 0
        assert medium.frames_lost_snr == 0

    def test_within_max_range_unchanged(self):
        for max_range in (None, 50.0):
            sim = Simulator()
            medium = WirelessMedium(sim, max_range_m=max_range)
            tx = Radio(sim, medium, A, position=Position(0.0, 0.0),
                       default_power_dbm=20.0)
            rx = Radio(sim, medium, B, position=Position(40.0, 0.0),
                       default_power_dbm=20.0)
            received = []
            rx.rx_callback = lambda frame, t: received.append(frame)
            tx.power_on()
            rx.power_on()
            tx.transmit(beacon(), OFDM_6)
            sim.run()
            assert len(received) == 1, max_range

    def test_interference_cutoff_ignores_distant_interferer(self):
        # Interferer at 60 m degrades SINR enough to break MCS7 at 11 m
        # — unless the interference cutoff excludes it.
        outcomes = {}
        for cutoff in (None, 50.0):
            sim = Simulator()
            medium = WirelessMedium(sim, interference_range_m=cutoff)
            tx = Radio(sim, medium, A, position=Position(0.0, 0.0))
            jam = Radio(sim, medium, B, position=Position(60.0, 0.0),
                        default_power_dbm=20.0)
            rx = Radio(sim, medium, C, position=Position(0.0, 11.0))
            received = []
            rx.rx_callback = lambda frame, t: received.append(frame)
            for radio in (tx, jam, rx):
                radio.power_on()
            tx.transmit(beacon(A), HT_MCS7_SGI)
            jam.transmit(beacon(B), OFDM_6)
            sim.run()
            outcomes[cutoff] = len(received)
        assert outcomes[None] == 0
        assert outcomes[50.0] == 1

    def test_invalid_ranges_rejected(self):
        sim = Simulator()
        with pytest.raises(MediumError):
            WirelessMedium(sim, max_range_m=0.0)
        with pytest.raises(MediumError):
            WirelessMedium(sim, interference_range_m=-1.0)


class TestParseOncePerWire:
    """``Radio.deliver`` parses each distinct wire once and shares the
    frame between its deliveries; a wire that fails to parse fails on
    every delivery. Parses are counted through the module global the
    e2e tracer wraps."""

    @pytest.fixture
    def parses(self, monkeypatch):
        from repro.sim import radio as radio_module
        radio_module._parse_wire.cache_clear()
        calls = []
        parse_frame = radio_module.parse_frame

        def counting(wire):
            calls.append(wire)
            return parse_frame(wire)
        monkeypatch.setattr(radio_module, "parse_frame", counting)
        yield calls
        radio_module._parse_wire.cache_clear()

    def listen(self, radios):
        heard = []
        for radio in radios:
            radio.rx_callback = lambda frame, t: heard.append(frame)
            radio.power_on()
        return heard

    def test_receivers_of_one_transmission_share_one_frame(self, parses):
        sim, _medium, (tx, *receivers) = setup(
            positions=((0.0, 0.0), (2.0, 0.0), (0.0, 2.0)))
        heard = self.listen(receivers)
        tx.power_on()
        tx.transmit(beacon(), OFDM_24)
        sim.run()
        assert len(heard) == 2
        assert heard[0] is heard[1]
        assert len(parses) == 1

    def test_repeated_wire_is_parsed_once(self, parses):
        sim, _medium, (tx, rx) = setup()
        heard = self.listen([rx])
        tx.power_on()
        for _ in range(3):
            tx.transmit(beacon(), OFDM_24)
            sim.run()
        assert len(heard) == 3
        assert heard[0] is heard[1] is heard[2]
        assert len(parses) == 1

    def test_bad_fcs_is_dropped_on_every_delivery(self, parses):
        sim, medium, (tx, rx) = setup()
        heard = self.listen([rx])
        wire = bytearray(beacon().to_bytes())
        wire[-1] ^= 0xFF
        tx.power_on()
        for _ in range(3):
            tx.transmit(bytes(wire), OFDM_24)
            sim.run()
        assert medium.frames_delivered == 3
        assert heard == [] and rx.frames_received == 0
        assert len(parses) == 3
        tx.transmit(beacon(), OFDM_24)
        sim.run()
        assert len(heard) == 1 and rx.frames_received == 1


class TestEncodeOnce:
    def test_repeated_frame_object_is_encoded_once(self):
        """Frames are immutable values: a sender that repeats one frame
        object (background traffic, a repeated beacon) pays one encode."""
        encodes = []

        class CountingBeacon:
            def __init__(self, beacon):
                self.beacon = beacon

            def to_bytes(self):
                encodes.append(self)
                return self.beacon.to_bytes()

        sim, _medium, (tx, rx) = setup()
        heard = []
        rx.rx_callback = lambda frame, t: heard.append(frame)
        tx.power_on()
        rx.power_on()
        first, second = CountingBeacon(beacon()), CountingBeacon(beacon(B))
        for frame in (first, first, second, first):
            tx.transmit(frame, OFDM_24)
            sim.run()
        assert encodes == [first, second, first]
        assert [frame.source for frame in heard] == [A, A, B, A]
