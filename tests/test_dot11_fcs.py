"""Tests for the frame check sequence (repro.dot11.fcs)."""

import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dot11.fcs import (
    append_fcs,
    check_fcs,
    crc32,
    crc32_reference,
    strip_fcs,
)


class TestCrc32:
    def test_empty(self):
        assert crc32(b"") == zlib.crc32(b"")

    def test_known_value(self):
        # The classic check value for "123456789" under CRC-32/ISO-HDLC.
        assert crc32(b"123456789") == 0xCBF43926
        assert crc32_reference(b"123456789") == 0xCBF43926

    @given(st.binary(max_size=512))
    def test_matches_zlib(self, data):
        assert crc32(data) == zlib.crc32(data)

    @given(st.binary(max_size=2048))
    def test_matches_reference(self, data):
        assert crc32(data) == crc32_reference(data)

    def test_single_bit_sensitivity(self):
        base = crc32(b"\x00" * 16)
        flipped = crc32(b"\x00" * 15 + b"\x01")
        assert base != flipped


class TestFrameFcs:
    def test_append_and_check(self):
        frame = append_fcs(b"beacon body")
        assert check_fcs(frame)
        assert len(frame) == len(b"beacon body") + 4

    def test_strip_round_trip(self):
        assert strip_fcs(append_fcs(b"payload")) == b"payload"

    def test_corruption_detected(self):
        frame = bytearray(append_fcs(b"payload"))
        frame[0] ^= 0x01
        assert not check_fcs(bytes(frame))

    def test_fcs_corruption_detected(self):
        frame = bytearray(append_fcs(b"payload"))
        frame[-1] ^= 0x80
        assert not check_fcs(bytes(frame))

    def test_too_short_is_invalid_not_error(self):
        assert not check_fcs(b"abc")

    def test_strip_raises_on_bad_fcs(self):
        with pytest.raises(ValueError):
            strip_fcs(b"not a valid frame at all")

    @given(st.binary(max_size=256))
    def test_round_trip_property(self, body):
        assert strip_fcs(append_fcs(body)) == body

    @given(st.binary(min_size=1, max_size=128), st.integers(0, 7))
    def test_any_bit_flip_detected(self, body, bit):
        frame = bytearray(append_fcs(body))
        frame[len(frame) // 2] ^= 1 << bit
        assert not check_fcs(bytes(frame))
