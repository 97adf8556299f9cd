"""Tests for MAC-layer retransmission and duplicate detection.

Fault injection drops chosen deliveries so the 802.11 retry rule can be
observed: lost frame -> retransmit with the same sequence number; lost
ACK -> the AP sees a duplicate, drops it, and re-acknowledges.
"""

from repro.dot11 import Ack, DataFrame, MacAddress, ProbeRequest
from repro.mac import AccessPoint, Station, StationState
from repro.sim import Position, Simulator, WirelessMedium

STA_MAC = MacAddress.parse("24:0a:c4:32:17:01")


def build():
    sim = Simulator()
    medium = WirelessMedium(sim)
    ap = AccessPoint(sim, medium, ssid="Net", passphrase="password1",
                     position=Position(0, 0), beaconing=False)
    station = Station(sim, medium, STA_MAC, ssid="Net",
                      passphrase="password1", position=Position(2, 0))
    return sim, medium, ap, station


def associate(sim, ap, station, until_s=10.0):
    done = {}
    station.connect_and_send(ap.mac, b"reading",
                             on_complete=lambda: done.setdefault("t", 1))
    sim.run(until_s=until_s)
    return "t" in done


class DropFirst:
    """Drop the first ``count`` deliveries matching a predicate."""

    def __init__(self, predicate, count=1):
        self.predicate = predicate
        self.remaining = count
        self.dropped = 0

    def __call__(self, transmission, radio):
        if self.remaining > 0 and self.predicate(transmission, radio):
            self.remaining -= 1
            self.dropped += 1
            return True
        return False


def is_probe(transmission, _radio):
    return isinstance(transmission.frame, ProbeRequest)


def is_ack_to_station(transmission, radio):
    return (isinstance(transmission.frame, Ack)
            and transmission.frame.receiver == STA_MAC)


class TestRetransmission:
    def test_clean_run_has_no_retries(self):
        sim, _medium, ap, station = build()
        assert associate(sim, ap, station)
        assert station.retries == 0
        assert station.retries_exhausted == 0
        assert ap.duplicates_dropped == 0

    def test_lost_frame_is_retransmitted(self):
        sim, medium, ap, station = build()
        medium.fault_injector = DropFirst(is_probe)
        assert associate(sim, ap, station)
        assert station.retries >= 1
        assert station.state is StationState.CONNECTED
        assert medium.frames_lost_injected >= 1

    def test_lost_ack_triggers_duplicate_handling(self):
        """The AP got the frame but the station missed the ACK: the
        retransmission must be dropped as a duplicate (not reprocessed)
        and re-acknowledged, and the handshake must still complete."""
        sim, medium, ap, station = build()
        medium.fault_injector = DropFirst(is_ack_to_station)
        assert associate(sim, ap, station)
        assert station.retries >= 1
        assert ap.duplicates_dropped >= 1

    def test_lost_eapol_ack_does_not_derail_handshake(self):
        """The fatal case duplicate detection exists for: a duplicate
        EAPOL message hitting the authenticator state machine."""
        sim, medium, ap, station = build()

        def eapol_ack(transmission, radio):
            # Drop the ACK for the station's 5th unicast frame (msg2).
            return (isinstance(transmission.frame, Ack)
                    and transmission.frame.receiver == STA_MAC)

        medium.fault_injector = DropFirst(eapol_ack, count=3)
        assert associate(sim, ap, station)
        assert ap.station(STA_MAC).handshake_complete

    def test_retry_reuses_sequence_number(self):
        sim, medium, ap, station = build()
        medium.fault_injector = DropFirst(is_probe)
        sequences = []
        original = medium.transmit

        def spy(sender, frame, rate, power_dbm):
            if isinstance(frame, ProbeRequest):
                sequences.append(frame.sequence)
            return original(sender, frame, rate, power_dbm)

        medium.transmit = spy
        assert associate(sim, ap, station)
        assert len(sequences) == 2
        assert sequences[0] == sequences[1]

    def test_retries_exhaust_after_limit(self):
        sim, medium, ap, station = build()
        medium.fault_injector = DropFirst(is_probe, count=100)
        assert not associate(sim, ap, station, until_s=5.0)
        assert station.retries == station.RETRY_LIMIT - 1
        assert station.retries_exhausted == 1
        assert station.state is StationState.PROBING

    def test_burst_loss_recovered(self):
        """Three consecutive lost probes still fit within the retry
        budget of four attempts."""
        sim, medium, ap, station = build()
        medium.fault_injector = DropFirst(is_probe, count=3)
        assert associate(sim, ap, station)
        assert station.retries == 3

    def test_data_frame_loss_recovered(self):
        sim, medium, ap, station = build()

        def is_dhcp_data(transmission, radio):
            frame = transmission.frame
            return (isinstance(frame, DataFrame) and frame.to_ds
                    and len(frame.payload) > 200)

        medium.fault_injector = DropFirst(is_dhcp_data)
        assert associate(sim, ap, station)
        assert station.retries >= 1
        assert station.ip is not None


class TestFaultInjectorMechanics:
    def test_counter_increments(self):
        sim, medium, ap, station = build()
        medium.fault_injector = DropFirst(is_probe, count=2)
        associate(sim, ap, station)
        assert medium.frames_lost_injected == 2

    def test_removing_injector_restores_delivery(self):
        sim, medium, ap, station = build()
        medium.fault_injector = DropFirst(is_probe, count=100)
        associate(sim, ap, station, until_s=3.0)
        medium.fault_injector = None
        # A fresh station on the same medium associates cleanly.
        second = Station(sim, medium, MacAddress.parse("24:0a:c4:32:17:99"),
                         ssid="Net", passphrase="password1",
                         position=Position(2, 1))
        done = {}
        second.connect_and_send(ap.mac, b"x",
                                on_complete=lambda: done.setdefault("t", 1))
        sim.run(until_s=sim.now_s + 10.0)
        assert "t" in done
