"""Tests for the Wi-LE message format (repro.core.payload)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.payload import (
    FragmentReassembler,
    PayloadError,
    SensorKind,
    SensorReading,
    WileFlags,
    WileMessage,
    WileMessageType,
    crc16_ccitt,
    crc16_ccitt_reference,
    fragment_message,
)
from repro.dot11.elements import VENDOR_IE_MAX_DATA


class TestCrc16:
    def test_known_check_value(self):
        # CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
        assert crc16_ccitt(b"123456789") == 0x29B1
        assert crc16_ccitt_reference(b"123456789") == 0x29B1

    @given(st.binary(max_size=512))
    def test_matches_reference(self, data):
        assert crc16_ccitt(data) == crc16_ccitt_reference(data)

    def test_empty(self):
        assert crc16_ccitt(b"") == 0xFFFF

    @given(st.binary(min_size=1, max_size=64), st.integers(0, 7))
    def test_detects_bit_flips(self, data, bit):
        flipped = bytearray(data)
        flipped[0] ^= 1 << bit
        assert crc16_ccitt(data) != crc16_ccitt(bytes(flipped))


class TestSensorReading:
    @pytest.mark.parametrize("kind,value", [
        (SensorKind.TEMPERATURE_C, 17.25),
        (SensorKind.TEMPERATURE_C, -40.0),
        (SensorKind.HUMIDITY_PCT, 55.5),
        (SensorKind.BATTERY_MV, 2950.0),
        (SensorKind.PRESSURE_PA, 101325.0),
        (SensorKind.COUNTER, 1234567.0),
    ])
    def test_numeric_round_trip(self, kind, value):
        encoded = SensorReading(kind, value).encode()
        decoded = SensorReading.decode_all(encoded)
        assert decoded == [SensorReading(kind, value)]

    def test_raw_round_trip(self):
        reading = SensorReading(SensorKind.RAW, b"opaque-bytes")
        assert SensorReading.decode_all(reading.encode()) == [reading]

    def test_raw_requires_bytes(self):
        with pytest.raises(PayloadError):
            SensorReading(SensorKind.RAW, 3.0).encode()

    def test_temperature_resolution(self):
        encoded = SensorReading(SensorKind.TEMPERATURE_C, 17.004).encode()
        decoded = SensorReading.decode_all(encoded)[0]
        assert decoded.value == pytest.approx(17.0)  # centi-degree grid

    def test_out_of_range_rejected(self):
        with pytest.raises(PayloadError):
            SensorReading(SensorKind.TEMPERATURE_C, 400.0).encode()
        with pytest.raises(PayloadError):
            SensorReading(SensorKind.BATTERY_MV, -1.0).encode()

    def test_multiple_readings_concatenate(self):
        blob = (SensorReading(SensorKind.TEMPERATURE_C, 17.0).encode()
                + SensorReading(SensorKind.HUMIDITY_PCT, 40.0).encode())
        assert len(SensorReading.decode_all(blob)) == 2

    def test_truncated_tlv_rejected(self):
        blob = SensorReading(SensorKind.TEMPERATURE_C, 17.0).encode()
        with pytest.raises(PayloadError):
            SensorReading.decode_all(blob[:-1])

    def test_unknown_kind_rejected(self):
        with pytest.raises(PayloadError):
            SensorReading.decode_all(bytes([0x50, 1, 0]))


class TestWileMessage:
    def make(self, **kwargs):
        defaults = dict(
            device_id=0x1234, sequence=7,
            readings=(SensorReading(SensorKind.TEMPERATURE_C, 17.0),))
        defaults.update(kwargs)
        return WileMessage(**defaults)

    def test_round_trip(self):
        message = self.make()
        decoded = WileMessage.decode(message.encode())
        assert decoded.device_id == 0x1234
        assert decoded.sequence == 7
        assert decoded.readings == message.readings
        assert decoded.message_type is WileMessageType.SENSOR_DATA

    def test_crc_protects_payload(self):
        blob = bytearray(self.make().encode())
        blob[5] ^= 0x01
        with pytest.raises(PayloadError, match="CRC"):
            WileMessage.decode(bytes(blob))

    def test_truncated_rejected(self):
        with pytest.raises(PayloadError):
            WileMessage.decode(self.make().encode()[:5])

    def test_unknown_version_rejected(self):
        blob = bytearray(self.make().encode())
        blob[0] = 99
        # Re-stamp the CRC so the version check is what fires.
        from repro.core.payload import crc16_ccitt as crc
        import struct
        blob[-2:] = struct.pack("<H", crc(bytes(blob[:-2])))
        with pytest.raises(PayloadError, match="version"):
            WileMessage.decode(bytes(blob))

    def test_rx_window_round_trip(self):
        message = self.make(flags=WileFlags.RX_WINDOW, rx_window_ms=25)
        decoded = WileMessage.decode(message.encode())
        assert decoded.flags & WileFlags.RX_WINDOW
        assert decoded.rx_window_ms == 25

    def test_rx_window_validation(self):
        with pytest.raises(PayloadError):
            self.make(flags=WileFlags.RX_WINDOW, rx_window_ms=0)

    def test_field_bounds(self):
        with pytest.raises(PayloadError):
            self.make(device_id=1 << 32)
        with pytest.raises(PayloadError):
            self.make(sequence=-1)

    def test_encrypted_without_key_raises(self):
        message = self.make(flags=WileFlags.ENCRYPTED, readings=(),
                            raw_body=b"ciphertext")
        # Encoding works; decoding without a decryptor must not.
        import dataclasses
        blob = dataclasses.replace(message).encode()
        with pytest.raises(PayloadError, match="encrypted"):
            WileMessage.decode(blob)

    def test_capacity_limit(self):
        big = self.make(readings=(SensorReading(SensorKind.RAW, b"x" * 250),))
        with pytest.raises(PayloadError, match="fragment"):
            big.encode()

    def test_fits_vendor_ie(self):
        assert len(self.make().encode()) <= VENDOR_IE_MAX_DATA

    @given(st.integers(0, (1 << 32) - 1), st.integers(0, (1 << 16) - 1))
    def test_ids_round_trip(self, device_id, sequence):
        message = self.make(device_id=device_id, sequence=sequence)
        decoded = WileMessage.decode(message.encode())
        assert (decoded.device_id, decoded.sequence) == (device_id, sequence)


class TestFragmentation:
    def test_small_body_single_fragment(self):
        fragments = fragment_message(1, 1, b"short")
        assert len(fragments) == 1
        assert fragments[0].fragment_total == 1

    def test_large_body_splits(self):
        body = bytes(600)
        fragments = fragment_message(1, 1, body)
        assert len(fragments) == 3
        assert all(len(f.encode()) <= VENDOR_IE_MAX_DATA for f in fragments)

    def test_reassembly(self):
        body = bytes(range(256)) * 3
        fragments = fragment_message(9, 4, body)
        reassembler = FragmentReassembler()
        result = None
        for fragment in fragments:
            decoded = WileMessage.decode(fragment.encode())
            result = reassembler.add(decoded)
        assert result == body

    def test_out_of_order_reassembly(self):
        body = bytes(500)
        fragments = fragment_message(9, 4, body)
        reassembler = FragmentReassembler()
        result = None
        for fragment in reversed(fragments):
            result = reassembler.add(fragment)
        assert result == body

    def test_incomplete_returns_none(self):
        fragments = fragment_message(9, 4, bytes(500))
        reassembler = FragmentReassembler()
        assert reassembler.add(fragments[0]) is None

    def test_interleaved_devices(self):
        reassembler = FragmentReassembler()
        first = fragment_message(1, 1, b"A" * 400)
        second = fragment_message(2, 1, b"B" * 400)
        assert reassembler.add(first[0]) is None
        assert reassembler.add(second[0]) is None
        assert reassembler.add(second[1]) == b"B" * 400
        assert reassembler.add(first[1]) == b"A" * 400

    def test_non_fragment_rejected(self):
        message = WileMessage(device_id=1, sequence=1)
        with pytest.raises(PayloadError):
            FragmentReassembler().add(message)

    def test_fragment_numbering_validated(self):
        with pytest.raises(PayloadError):
            WileMessage(device_id=1, sequence=1, flags=WileFlags.FRAGMENT,
                        fragment_index=3, fragment_total=2, raw_body=b"")

    @given(st.binary(min_size=1, max_size=2000))
    def test_any_body_reassembles(self, body):
        reassembler = FragmentReassembler()
        result = None
        for fragment in fragment_message(5, 2, body):
            result = reassembler.add(
                WileMessage.decode(fragment.encode()))
        assert result == body
