"""Integration tests: the full §3.1 association against the simulated AP."""

import pytest

from repro.dot11 import Beacon, MacAddress, Rsn, Ssid, Tim, find_element
from repro.mac import (
    BEACON_INTERVAL_S,
    AccessPoint,
    FrameLayer,
    MonitorSniffer,
    Station,
    StationState,
)
from repro.netproto import Ipv4Address
from repro.sim import Position, Simulator, WirelessMedium

STA_MAC = MacAddress.parse("24:0a:c4:32:17:01")


def build_network(beaconing=False):
    sim = Simulator()
    medium = WirelessMedium(sim)
    ap = AccessPoint(sim, medium, ssid="GoogleWifi", passphrase="hotnets2019",
                     position=Position(0, 0), beaconing=beaconing)
    station = Station(sim, medium, STA_MAC, ssid="GoogleWifi",
                      passphrase="hotnets2019", position=Position(2, 0))
    return sim, medium, ap, station


def associate(sim, ap, station, payload=b"temp=17.0C"):
    done = {}
    station.connect_and_send(ap.mac, payload,
                             on_complete=lambda: done.setdefault("t", sim.now_s))
    sim.run(until_s=10.0)
    assert "t" in done, "association sequence never completed"
    return done["t"]


class TestFullAssociation:
    def test_completes(self):
        sim, _medium, ap, station = build_network()
        associate(sim, ap, station)
        assert station.state is StationState.CONNECTED

    def test_paper_frame_counts(self):
        """§3.1: 20 MAC-layer frames + 7 higher-layer frames."""
        sim, _medium, ap, station = build_network()
        associate(sim, ap, station)
        assert station.frame_log.mac_frames == 20
        assert station.frame_log.higher_layer_frames == 7

    def test_handshake_is_at_least_8_frames(self):
        sim, _medium, ap, station = build_network()
        associate(sim, ap, station)
        assert station.frame_log.count(FrameLayer.MAC, "eapol") == 8

    def test_station_gets_lease_and_gateway(self):
        sim, _medium, ap, station = build_network()
        associate(sim, ap, station)
        assert station.ip is not None
        assert station.ip.in_subnet(Ipv4Address.parse("192.168.86.0"), 24)
        assert station.gateway_mac == ap.mac

    def test_ap_tracks_station_context(self):
        sim, _medium, ap, station = build_network()
        associate(sim, ap, station)
        context = ap.station(STA_MAC)
        assert context is not None
        assert context.associated and context.handshake_complete
        assert context.ccmp is not None

    def test_phase_marks_are_ordered(self):
        sim, _medium, ap, station = build_network()
        associate(sim, ap, station)
        marks = station.phase_marks
        assert (marks["connect_start"] < marks["assoc_phase_start"]
                < marks["assoc_phase_end"] < marks["net_phase_start"]
                < marks["net_phase_end"] <= marks["data_sent"])

    def test_assoc_phase_duration_near_figure3a(self):
        """Figure 3a shows ~0.3 s of probe/auth/assoc/WPA2."""
        sim, _medium, ap, station = build_network()
        associate(sim, ap, station)
        span = (station.phase_marks["assoc_phase_end"]
                - station.phase_marks["assoc_phase_start"])
        assert 0.2 < span < 0.4

    def test_net_phase_duration_near_figure3a(self):
        """Figure 3a shows ~0.6 s of DHCP/ARP."""
        sim, _medium, ap, station = build_network()
        associate(sim, ap, station)
        span = (station.phase_marks["net_phase_end"]
                - station.phase_marks["net_phase_start"])
        assert 0.45 < span < 0.8

    def test_data_frames_are_ccmp_protected(self):
        """A monitor-mode observer must not read the sensor datagram."""
        sim, medium, ap, station = build_network()
        sniffer = MonitorSniffer(sim, medium, position=Position(1, 1))
        payload = b"SECRET-temperature"
        associate(sim, ap, station, payload=payload)
        for capture in sniffer.captures:
            assert payload not in capture.frame_bytes

    def test_reconnection_gets_same_lease(self):
        sim, medium, ap, _first = build_network()
        first = Station(sim, medium, STA_MAC, ssid="GoogleWifi",
                        passphrase="hotnets2019", position=Position(2, 0))
        associate(sim, ap, first)
        lease = first.ip
        first.radio.power_off()  # the first station leaves the air
        second = Station(sim, medium, STA_MAC, ssid="GoogleWifi",
                         passphrase="hotnets2019", position=Position(2, 0))
        done = {}
        second.connect_and_send(ap.mac, b"x",
                                on_complete=lambda: done.setdefault("t", 1))
        sim.run(until_s=sim.now_s + 10.0)
        assert "t" in done
        assert second.ip == lease


class TestBeaconing:
    def test_ap_beacons_at_102ms(self):
        sim, medium, ap, _station = build_network(beaconing=True)
        sniffer = MonitorSniffer(sim, medium, position=Position(1, 0))
        sim.run(until_s=1.0)
        beacons = sniffer.frames_of_type(Beacon)
        # First beacon at interval/2, then every 102.4 ms.
        expected = int((1.0 - BEACON_INTERVAL_S / 2) / BEACON_INTERVAL_S) + 1
        assert len(beacons) == expected

    def test_beacon_advertises_rsn_and_ssid(self):
        sim, medium, ap, _station = build_network(beaconing=True)
        sniffer = MonitorSniffer(sim, medium, position=Position(1, 0))
        sim.run(until_s=0.2)
        beacon = sniffer.frames_of_type(Beacon)[0]
        elements = list(beacon.elements)
        assert find_element(elements, Ssid).name == b"GoogleWifi"
        assert find_element(elements, Rsn) is not None
        assert find_element(elements, Tim) is not None


class TestPowerSave:
    def build_associated(self):
        sim, medium, ap, station = build_network(beaconing=True)
        done = {}
        station.connect_and_send(ap.mac, b"",
                                 on_complete=lambda: done.setdefault("t", 1))
        sim.run(until_s=3.0)
        assert "t" in done
        return sim, medium, ap, station

    def test_enter_power_save_flags_ap(self):
        sim, _medium, ap, station = self.build_associated()
        station.enter_power_save()
        sim.run(until_s=sim.now_s + 0.5)
        assert ap.station(STA_MAC).power_save

    def test_buffered_frame_delivered_via_tim_and_ps_poll(self):
        sim, _medium, ap, station = self.build_associated()
        station.enter_power_save()
        sim.run(until_s=sim.now_s + 0.3)
        context = ap.station(STA_MAC)
        # Queue a downlink frame while the station sleeps.
        from repro.dot11 import DataFrame
        from repro.netproto import ETHERTYPE_IPV4, UdpDatagram, llc_encapsulate
        datagram = UdpDatagram(5683, 49152, b"command").in_ipv4(
            ap.ip, station.ip)
        frame = DataFrame(destination=STA_MAC, source=ap.mac, bssid=ap.mac,
                          payload=llc_encapsulate(ETHERTYPE_IPV4,
                                                  datagram.to_bytes()),
                          from_ds=True)
        ap._send_or_buffer(context, frame)
        assert context.buffered, "frame should be buffered for a PS station"
        # Within a few beacon intervals the TIM triggers a PS-Poll and
        # the AP flushes its buffer.
        sim.run(until_s=sim.now_s + 4 * BEACON_INTERVAL_S * station.listen_interval)
        assert not context.buffered

    def test_send_data_from_power_save(self):
        sim, _medium, ap, station = self.build_associated()
        station.enter_power_save()
        sim.run(until_s=sim.now_s + 0.3)
        done = {}
        station.send_data(b"reading-7",
                          on_complete=lambda: done.setdefault("t", 1))
        sim.run(until_s=sim.now_s + 2.0)
        assert "t" in done
        # The station announced PS again after transmitting.
        sim.run(until_s=sim.now_s + 0.5)
        assert ap.station(STA_MAC).power_save


class TestApRobustness:
    def test_assoc_without_auth_deauthed(self):
        sim, medium, ap, _station = build_network()
        from repro.dot11 import AssociationRequest, Deauthentication
        from repro.sim import Radio
        rogue_mac = MacAddress.parse("66:00:00:00:00:66")
        rogue = Radio(sim, medium, rogue_mac, position=Position(1, 0),
                      default_power_dbm=20.0)
        received = []
        rogue.rx_callback = lambda frame, t: received.append(frame)
        rogue.power_on()
        request = AssociationRequest(destination=ap.mac, source=rogue_mac,
                                     bssid=ap.mac)
        rogue.transmit(request, ap.mgmt_rate)
        sim.run(until_s=1.0)
        assert any(isinstance(frame, Deauthentication) for frame in received)

    def test_wrong_passphrase_station_never_completes(self):
        sim = Simulator()
        medium = WirelessMedium(sim)
        ap = AccessPoint(sim, medium, ssid="GoogleWifi",
                         passphrase="correct-horse", position=Position(0, 0),
                         beaconing=False)
        station = Station(sim, medium, STA_MAC, ssid="GoogleWifi",
                          passphrase="battery-staple", position=Position(2, 0))
        done = {}
        station.connect_and_send(ap.mac, b"x",
                                 on_complete=lambda: done.setdefault("t", 1))
        with pytest.raises(Exception):
            # The AP raises on the bad MIC in message 2.
            sim.run(until_s=5.0)
        assert "t" not in done
