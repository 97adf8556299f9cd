"""Tests for PHY rate tables and airtime computation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dot11.airtime import (
    ACK_BYTES,
    DIFS_US,
    SIFS_US,
    SLOT_US,
    AirtimeError,
    ack_airtime_us,
    data_exchange_us,
    frame_airtime_us,
)
from repro.dot11.rates import (
    ALL_RATES,
    CCK_11,
    DSSS_1,
    HT_MCS7,
    HT_MCS7_SGI,
    OFDM_6,
    OFDM_54,
    WILE_DEFAULT_RATE,
    rate_by_name,
    supported_rates_ie_values,
)


class TestRateTables:
    def test_wile_default_is_72_mbps(self):
        # Paper §5.4: "we use a physical bitrate of 72 Mbps".
        assert WILE_DEFAULT_RATE.data_rate_mbps == pytest.approx(72.2)

    def test_lookup_by_name(self):
        assert rate_by_name("OFDM-54") is OFDM_54

    def test_lookup_unknown(self):
        with pytest.raises(KeyError):
            rate_by_name("OFDM-11")

    def test_all_rates_distinct_names(self):
        names = [rate.name for rate in ALL_RATES]
        assert len(names) == len(set(names))

    def test_sgi_is_faster_than_lgi(self):
        assert HT_MCS7_SGI.data_rate_mbps > HT_MCS7.data_rate_mbps

    def test_supported_rates_ie_marks_basic(self):
        values = supported_rates_ie_values()
        assert 0x82 in values  # 1 Mbps basic
        assert 0x0C in values  # 6 Mbps non-basic

    def test_min_snr_monotone_within_ofdm(self):
        from repro.dot11.rates import OFDM_RATES
        snrs = [rate.min_snr_db for rate in OFDM_RATES]
        assert snrs == sorted(snrs)


class TestDsssAirtime:
    def test_1mbps_long_preamble(self):
        # 192 us PLCP + 8 bits/byte at 1 Mbps.
        assert frame_airtime_us(100, DSSS_1) == pytest.approx(192 + 800)

    def test_11mbps_short_preamble(self):
        assert frame_airtime_us(100, CCK_11) == pytest.approx(
            96 + 800 / 11.0)

    def test_short_preamble_not_applied_at_1mbps(self):
        # 1 Mbps frames always use the long preamble.
        assert frame_airtime_us(0, DSSS_1, short_preamble=True) == pytest.approx(192)


class TestOfdmAirtime:
    def test_ofdm6_known_value(self):
        # 100 bytes: 16+800+6 = 822 bits -> ceil(822/24)=35 symbols.
        expected = 16 + 4 + 35 * 4 + 6
        assert frame_airtime_us(100, OFDM_6) == pytest.approx(expected)

    def test_symbol_quantisation(self):
        # Adding one byte within the same symbol changes nothing...
        base = frame_airtime_us(99, OFDM_54)
        assert frame_airtime_us(100, OFDM_54) in (base, base + 4)

    def test_ht_mcs7_sgi_known_value(self):
        # 72 bytes: 16+576+6=598 bits -> ceil(598/260)=3 symbols of 3.6us.
        expected = 36 + 3 * 3.6 + 6
        assert frame_airtime_us(72, HT_MCS7_SGI) == pytest.approx(expected)

    def test_negative_length_rejected(self):
        with pytest.raises(AirtimeError):
            frame_airtime_us(-1, OFDM_6)


class TestAirtimeProperties:
    @given(st.integers(0, 2000))
    def test_monotone_in_length(self, length):
        assert (frame_airtime_us(length + 100, OFDM_24_rate())
                >= frame_airtime_us(length, OFDM_24_rate()))

    @given(st.integers(1, 1500))
    def test_faster_rate_never_slower(self, length):
        assert (frame_airtime_us(length, OFDM_54)
                <= frame_airtime_us(length, OFDM_6))

    @given(st.integers(0, 1500))
    def test_positive(self, length):
        for rate in (DSSS_1, OFDM_6, HT_MCS7_SGI):
            assert frame_airtime_us(length, rate) > 0


def OFDM_24_rate():
    from repro.dot11.rates import OFDM_24
    return OFDM_24


class TestMacTiming:
    def test_difs_is_sifs_plus_two_slots(self):
        assert DIFS_US == SIFS_US + 2 * SLOT_US

    def test_ack_at_basic_rate(self):
        assert ack_airtime_us(OFDM_54) == pytest.approx(
            frame_airtime_us(ACK_BYTES, OFDM_6))

    def test_dsss_ack_at_1mbps(self):
        assert ack_airtime_us(CCK_11) == pytest.approx(
            frame_airtime_us(ACK_BYTES, DSSS_1, short_preamble=False))

    def test_exchange_includes_all_parts(self):
        assert data_exchange_us(100, OFDM_6, backoff_slots=4) == pytest.approx(
            DIFS_US + 4 * SLOT_US + frame_airtime_us(100, OFDM_6)
            + SIFS_US + ack_airtime_us(OFDM_6))

    def test_broadcast_exchange_has_no_ack(self):
        assert data_exchange_us(100, OFDM_6, with_ack=False) == pytest.approx(
            DIFS_US + frame_airtime_us(100, OFDM_6))

    def test_negative_backoff_rejected(self):
        with pytest.raises(AirtimeError):
            data_exchange_us(10, OFDM_6, backoff_slots=-1)
