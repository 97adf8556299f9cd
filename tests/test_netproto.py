"""Tests for the network-layer substrate: checksum, LLC, IP, UDP, ARP."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dot11 import MacAddress
from repro.netproto import (
    ETHERTYPE_ARP,
    ETHERTYPE_EAPOL,
    ETHERTYPE_IPV4,
    PROTO_UDP,
    ArpError,
    ArpOperation,
    ArpPacket,
    IpError,
    Ipv4Address,
    Ipv4Packet,
    LlcError,
    UdpDatagram,
    UdpError,
    internet_checksum,
    llc_decapsulate,
    llc_encapsulate,
    verify_checksum,
)

STA = MacAddress.parse("24:0a:c4:32:17:01")
AP = MacAddress.parse("f8:8f:ca:00:86:01")


class TestChecksum:
    def test_rfc1071_example(self):
        # The classic worked example: 0001 f203 f4f5 f6f7 -> checksum 220d.
        data = bytes.fromhex("0001f203f4f5f6f7")
        assert internet_checksum(data) == 0x220D

    def test_verify_with_embedded_checksum(self):
        data = bytes.fromhex("0001f203f4f5f6f7220d")
        assert verify_checksum(data)

    def test_odd_length_padding(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    @given(st.binary(min_size=2, max_size=64).filter(lambda d: len(d) % 2 == 0))
    def test_inserting_checksum_verifies(self, data):
        # Only even-length data keeps the appended checksum word-aligned.
        checksum = internet_checksum(data)
        assert verify_checksum(data + checksum.to_bytes(2, "big"))


class TestLlc:
    def test_round_trip(self):
        msdu = llc_encapsulate(ETHERTYPE_IPV4, b"packet")
        assert llc_decapsulate(msdu) == (ETHERTYPE_IPV4, b"packet")

    def test_known_ethertypes(self):
        assert ETHERTYPE_ARP == 0x0806
        assert ETHERTYPE_EAPOL == 0x888E

    def test_bad_header_rejected(self):
        with pytest.raises(LlcError):
            llc_decapsulate(b"\x00" * 10)

    def test_short_msdu_rejected(self):
        with pytest.raises(LlcError):
            llc_decapsulate(b"\xaa\xaa\x03")

    def test_bad_ethertype_rejected(self):
        with pytest.raises(LlcError):
            llc_encapsulate(0x10000, b"")


class TestIpv4Address:
    def test_parse_and_str(self):
        addr = Ipv4Address.parse("192.168.86.1")
        assert str(addr) == "192.168.86.1"
        assert bytes(addr) == b"\xc0\xa8\x56\x01"

    def test_parse_rejects_malformed(self):
        for bad in ("192.168.1", "1.2.3.4.5", "a.b.c.d", "256.1.1.1", ""):
            with pytest.raises(IpError):
                Ipv4Address.parse(bad)

    def test_broadcast_and_zero(self):
        assert str(Ipv4Address.broadcast()) == "255.255.255.255"
        assert str(Ipv4Address.zero()) == "0.0.0.0"

    def test_in_subnet(self):
        addr = Ipv4Address.parse("192.168.86.100")
        net = Ipv4Address.parse("192.168.86.0")
        assert addr.in_subnet(net, 24)
        assert not addr.in_subnet(Ipv4Address.parse("10.0.0.0"), 8)
        assert addr.in_subnet(Ipv4Address.zero(), 0)

    def test_usable_as_dict_key(self):
        table = {Ipv4Address.parse("10.0.0.1"): "gw"}
        assert table[Ipv4Address.parse("10.0.0.1")] == "gw"


class TestIpv4Packet:
    def make(self, payload=b"data"):
        return Ipv4Packet(Ipv4Address.parse("192.168.86.100"),
                          Ipv4Address.parse("192.168.86.1"),
                          PROTO_UDP, payload, ttl=64, identification=7)

    def test_round_trip(self):
        parsed = Ipv4Packet.from_bytes(self.make().to_bytes())
        assert parsed == self.make()

    def test_header_checksum_verifies(self):
        raw = self.make().to_bytes()
        assert verify_checksum(raw[:20])

    def test_corrupted_header_rejected(self):
        raw = bytearray(self.make().to_bytes())
        raw[12] ^= 0xFF
        with pytest.raises(IpError, match="checksum"):
            Ipv4Packet.from_bytes(bytes(raw))

    def test_truncated_rejected(self):
        with pytest.raises(IpError):
            Ipv4Packet.from_bytes(self.make().to_bytes()[:16])

    def test_not_ipv4_rejected(self):
        raw = bytearray(self.make().to_bytes())
        raw[0] = 0x65  # version 6
        with pytest.raises(IpError, match="IPv4"):
            Ipv4Packet.from_bytes(bytes(raw))

    def test_oversize_rejected(self):
        with pytest.raises(IpError):
            self.make(payload=b"x" * 65530).to_bytes()

    @given(st.binary(max_size=512))
    def test_any_payload_round_trips(self, payload):
        packet = self.make(payload)
        assert Ipv4Packet.from_bytes(packet.to_bytes()).payload == payload


class TestUdp:
    SRC = Ipv4Address.parse("0.0.0.0")
    DST = Ipv4Address.parse("255.255.255.255")

    def test_round_trip(self):
        datagram = UdpDatagram(68, 67, b"dhcp payload")
        parsed = UdpDatagram.from_bytes(datagram.to_bytes(self.SRC, self.DST))
        assert parsed == datagram

    def test_port_bounds(self):
        with pytest.raises(UdpError):
            UdpDatagram(-1, 67, b"")
        with pytest.raises(UdpError):
            UdpDatagram(68, 70000, b"")

    def test_length_field_respected(self):
        raw = UdpDatagram(1, 2, b"abc").to_bytes(self.SRC, self.DST)
        parsed = UdpDatagram.from_bytes(raw + b"trailing-garbage")
        assert parsed.payload == b"abc"

    def test_truncated_rejected(self):
        with pytest.raises(UdpError):
            UdpDatagram.from_bytes(b"\x00\x01")

    def test_in_ipv4_wraps(self):
        packet = UdpDatagram(68, 67, b"x").in_ipv4(self.SRC, self.DST)
        assert packet.protocol == PROTO_UDP
        assert UdpDatagram.from_bytes(packet.payload).payload == b"x"


class TestArp:
    def test_request_reply_flow(self):
        request = ArpPacket.request(STA, Ipv4Address.parse("192.168.86.100"),
                                    Ipv4Address.parse("192.168.86.1"))
        assert request.operation is ArpOperation.REQUEST
        reply = request.reply_from(AP)
        assert reply.operation is ArpOperation.REPLY
        assert reply.sender_mac == AP
        assert reply.target_mac == STA
        assert str(reply.sender_ip) == "192.168.86.1"

    def test_round_trip(self):
        request = ArpPacket.request(STA, Ipv4Address.parse("10.0.0.2"),
                                    Ipv4Address.parse("10.0.0.1"))
        assert ArpPacket.from_bytes(request.to_bytes()) == request

    def test_reply_only_to_requests(self):
        request = ArpPacket.request(STA, Ipv4Address.parse("10.0.0.2"),
                                    Ipv4Address.parse("10.0.0.1"))
        reply = request.reply_from(AP)
        with pytest.raises(ArpError):
            reply.reply_from(STA)

    def test_malformed_rejected(self):
        with pytest.raises(ArpError):
            ArpPacket.from_bytes(b"\x00" * 10)

    def test_unsupported_types_rejected(self):
        raw = bytearray(ArpPacket.request(
            STA, Ipv4Address.zero(), Ipv4Address.zero()).to_bytes())
        raw[1] = 9  # htype
        with pytest.raises(ArpError):
            ArpPacket.from_bytes(bytes(raw))
