"""Tests for the BLE link-layer substrate (repro.ble)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ble import (
    ADVERTISING_ACCESS_ADDRESS,
    ADVERTISING_CHANNELS,
    MAX_ADV_DATA_BYTES,
    AdvertisingPdu,
    AdvPduType,
    BleConnection,
    BlePacketError,
    DataLlid,
    DataPdu,
    airtime_us,
    append_crc,
    check_crc,
    crc24,
    decode_on_air,
    encode_on_air,
    energy_per_bit_nj,
    on_air_bytes,
    pdu_airtime_us,
    whiten,
    whitening_index_for_channel,
)
from repro.ble.whitening import WhiteningError
from repro.sim import JitteryClock, Simulator

ADDR = bytes.fromhex("c0ffee123456")


class TestCrc24:
    def test_deterministic(self):
        assert crc24(b"hello") == crc24(b"hello")

    def test_within_24_bits(self):
        assert 0 <= crc24(b"\xff" * 64) < (1 << 24)

    def test_init_sensitivity(self):
        assert crc24(b"data", 0x555555) != crc24(b"data", 0x123456)

    def test_append_and_check(self):
        packet = append_crc(b"advertising pdu")
        assert check_crc(packet)

    def test_corruption_detected(self):
        packet = bytearray(append_crc(b"advertising pdu"))
        packet[3] ^= 0x10
        assert not check_crc(bytes(packet))

    def test_short_packet_invalid(self):
        assert not check_crc(b"\x01\x02")

    def test_bad_init_rejected(self):
        with pytest.raises(Exception):
            crc24(b"", crc_init=1 << 24)

    @given(st.binary(max_size=64))
    def test_round_trip_property(self, pdu):
        assert check_crc(append_crc(pdu))

    @given(st.binary(min_size=1, max_size=32), st.integers(0, 7))
    def test_bit_flip_detected(self, pdu, bit):
        packet = bytearray(append_crc(pdu))
        packet[0] ^= 1 << bit
        assert not check_crc(bytes(packet))


class TestWhitening:
    @given(st.binary(max_size=64), st.integers(0, 39))
    def test_involution(self, data, channel):
        assert whiten(whiten(data, channel), channel) == data

    def test_changes_the_data(self):
        data = bytes(16)
        assert whiten(data, 0) != data

    def test_channel_dependence(self):
        data = bytes(16)
        assert whiten(data, 0) != whiten(data, 12)

    def test_bad_channel_rejected(self):
        with pytest.raises(WhiteningError):
            whiten(b"", 40)

    def test_channel_mapping(self):
        assert whitening_index_for_channel(37) == 0
        assert whitening_index_for_channel(38) == 12
        assert whitening_index_for_channel(39) == 39
        assert whitening_index_for_channel(0) == 1
        assert whitening_index_for_channel(11) == 13
        assert whitening_index_for_channel(36) == 38
        with pytest.raises(BlePacketError):
            whitening_index_for_channel(40)


class TestAdvertisingPdu:
    def test_round_trip(self):
        pdu = AdvertisingPdu(AdvPduType.ADV_NONCONN_IND, ADDR, b"temp=17")
        assert AdvertisingPdu.from_bytes(pdu.to_bytes()) == pdu

    def test_payload_limit(self):
        AdvertisingPdu(AdvPduType.ADV_NONCONN_IND, ADDR,
                       b"x" * MAX_ADV_DATA_BYTES)
        with pytest.raises(BlePacketError):
            AdvertisingPdu(AdvPduType.ADV_NONCONN_IND, ADDR,
                           b"x" * (MAX_ADV_DATA_BYTES + 1))

    def test_bad_address(self):
        with pytest.raises(BlePacketError):
            AdvertisingPdu(AdvPduType.ADV_IND, b"short")

    def test_truncated_rejected(self):
        pdu = AdvertisingPdu(AdvPduType.ADV_NONCONN_IND, ADDR, b"data")
        with pytest.raises(BlePacketError):
            AdvertisingPdu.from_bytes(pdu.to_bytes()[:6])

    @given(st.binary(max_size=MAX_ADV_DATA_BYTES))
    def test_any_payload_round_trips(self, data):
        pdu = AdvertisingPdu(AdvPduType.ADV_NONCONN_IND, ADDR, data)
        assert AdvertisingPdu.from_bytes(pdu.to_bytes()).data == data


class TestDataPdu:
    def test_round_trip(self):
        pdu = DataPdu(DataLlid.START, b"reading", nesn=1, sn=0, more_data=True)
        assert DataPdu.from_bytes(pdu.to_bytes()) == pdu

    def test_bit_fields_validated(self):
        with pytest.raises(BlePacketError):
            DataPdu(DataLlid.START, b"", nesn=2)

    def test_payload_limit(self):
        with pytest.raises(BlePacketError):
            DataPdu(DataLlid.START, b"x" * 252)


class TestOnAir:
    def test_round_trip_all_adv_channels(self):
        pdu = AdvertisingPdu(AdvPduType.ADV_NONCONN_IND, ADDR, b"hi").to_bytes()
        for channel in ADVERTISING_CHANNELS:
            packet = encode_on_air(pdu, channel)
            access_address, decoded = decode_on_air(packet, channel)
            assert access_address == ADVERTISING_ACCESS_ADDRESS
            assert decoded == pdu

    def test_wrong_channel_fails_crc(self):
        pdu = AdvertisingPdu(AdvPduType.ADV_NONCONN_IND, ADDR, b"hi").to_bytes()
        packet = encode_on_air(pdu, 37)
        with pytest.raises(BlePacketError, match="CRC"):
            decode_on_air(packet, 38)

    def test_corruption_fails_crc(self):
        pdu = AdvertisingPdu(AdvPduType.ADV_NONCONN_IND, ADDR, b"hi").to_bytes()
        packet = bytearray(encode_on_air(pdu, 37))
        packet[8] ^= 0x01
        with pytest.raises(BlePacketError, match="CRC"):
            decode_on_air(bytes(packet), 37)

    def test_on_air_overhead(self):
        # preamble 1 + AA 4 + CRC 3 = 8 bytes of overhead.
        assert on_air_bytes(b"x" * 10) == 18


class TestAirtime:
    def test_one_bit_per_microsecond(self):
        assert airtime_us(10) == pytest.approx(80.0)

    def test_pdu_airtime_includes_overhead(self):
        pdu = b"x" * 10
        assert pdu_airtime_us(pdu) == pytest.approx(8.0 * 18)

    def test_energy_per_bit_matches_paper_ballpark(self):
        # §1: BLE needs 275-300 nJ/bit at the physical layer. At ~10 dBm
        # -class TX power (tens of mW total draw) the 1 Mbps PHY lands
        # in that range.
        value = energy_per_bit_nj(tx_power_w=0.25, payload_bytes=24)
        assert 200 < value < 450

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            airtime_us(-1)
        with pytest.raises(ValueError):
            energy_per_bit_nj(0.1, 0)


class TestConnection:
    def test_slave_transmits_queued_payload(self):
        sim = Simulator()
        connection = BleConnection(sim, connection_interval_s=0.1)
        connection.queue_payload(b"reading-1")
        connection.start()
        sim.run(until_s=0.35)
        connection.stop()
        payloads = [record.slave_pdu.payload for record in connection.records]
        assert b"reading-1" in payloads

    def test_sequence_numbers_alternate(self):
        sim = Simulator()
        connection = BleConnection(sim, connection_interval_s=0.05)
        connection.start()
        sim.run(until_s=0.30)
        connection.stop()
        sns = [record.slave_pdu.sn for record in connection.records]
        assert sns[:4] == [0, 1, 0, 1]

    def test_slave_latency_skips_events(self):
        sim = Simulator()
        attentive = BleConnection(sim, connection_interval_s=0.05)
        lazy = BleConnection(sim, connection_interval_s=0.05, slave_latency=4)
        attentive.start()
        lazy.start()
        sim.run(until_s=1.0)
        assert len(lazy.records) < len(attentive.records)

    def test_minimum_interval_enforced(self):
        with pytest.raises(ValueError):
            BleConnection(Simulator(), connection_interval_s=0.001)

    def test_jittery_clock_shifts_anchor(self):
        sim = Simulator()
        connection = BleConnection(
            sim, connection_interval_s=0.1,
            clock=JitteryClock(drift_ppm=50_000.0))
        connection.start()
        sim.run(until_s=0.5)
        connection.stop()
        # 5 % slow clock: first anchor at 0.105 s, not 0.100 s.
        assert connection.records[0].time_s == pytest.approx(0.105)
