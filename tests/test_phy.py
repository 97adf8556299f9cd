"""Tests for path loss, link, and range models (repro.phy)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dot11.rates import (
    DSSS_1,
    HT_MCS7_SGI,
    OFDM_6,
    OFDM_54,
    Modulation,
    OFDM_RATES,
)
from repro.phy import (
    LinkModelError,
    PropagationError,
    RangeEstimate,
    bit_error_rate,
    frame_delivered,
    fspl_db,
    log_distance_path_loss_db,
    max_range_m,
    noise_floor_dbm,
    packet_error_rate,
    range_table,
    received_power_dbm,
    snr_db,
)


class TestPathLoss:
    def test_fspl_2_4ghz_at_1m(self):
        # Friis at 2.437 GHz, 1 m: ~40.2 dB.
        assert fspl_db(1.0) == pytest.approx(40.17, abs=0.1)

    def test_fspl_inverse_square(self):
        assert fspl_db(20.0) - fspl_db(10.0) == pytest.approx(6.02, abs=0.01)

    def test_log_distance_matches_fspl_at_reference(self):
        assert log_distance_path_loss_db(1.0) == pytest.approx(fspl_db(1.0))

    def test_log_distance_exponent(self):
        loss10 = log_distance_path_loss_db(10.0, exponent=3.0)
        loss100 = log_distance_path_loss_db(100.0, exponent=3.0)
        assert loss100 - loss10 == pytest.approx(30.0)

    def test_invalid_inputs(self):
        with pytest.raises(PropagationError):
            fspl_db(0.0)
        with pytest.raises(PropagationError):
            fspl_db(1.0, frequency_hz=-1.0)
        with pytest.raises(PropagationError):
            log_distance_path_loss_db(1.0, exponent=0.5)

    @given(st.floats(0.1, 1000.0), st.floats(0.2, 2000.0))
    def test_monotone_in_distance(self, first, second):
        lo, hi = sorted((first, second))
        assert (log_distance_path_loss_db(lo)
                <= log_distance_path_loss_db(hi) + 1e-9)


class TestNoise:
    def test_20mhz_floor(self):
        # -174 + 10log10(20e6) + 7 = -94 dBm.
        assert noise_floor_dbm(20e6) == pytest.approx(-94.0, abs=0.1)

    def test_narrower_band_is_quieter(self):
        assert noise_floor_dbm(1e6) < noise_floor_dbm(20e6)

    def test_invalid_bandwidth(self):
        with pytest.raises(PropagationError):
            noise_floor_dbm(0.0)


class TestLinkBudget:
    def test_received_power_chain(self):
        power = received_power_dbm(20.0, 10.0, exponent=3.0)
        assert power == pytest.approx(20.0 - log_distance_path_loss_db(10.0))

    def test_snr_definition(self):
        assert snr_db(0.0, 3.0) == pytest.approx(
            received_power_dbm(0.0, 3.0) - noise_floor_dbm(20e6))


class TestBer:
    def test_bpsk_at_high_snr_is_tiny(self):
        assert bit_error_rate(15.0, Modulation.BPSK) < 1e-9

    def test_qam64_needs_more_snr_than_bpsk(self):
        assert (bit_error_rate(10.0, Modulation.QAM64)
                > bit_error_rate(10.0, Modulation.BPSK))

    def test_coding_gain_helps(self):
        assert (bit_error_rate(8.0, Modulation.QPSK, coding_rate=1 / 2)
                < bit_error_rate(8.0, Modulation.QPSK, coding_rate=1.0))

    def test_gfsk_model_present(self):
        assert 0 < bit_error_rate(5.0, Modulation.GFSK) < 0.5

    @given(st.floats(-10.0, 40.0))
    def test_ber_in_unit_range(self, snr):
        for modulation in Modulation:
            ber = bit_error_rate(snr, modulation)
            assert 0.0 <= ber <= 0.5 + 1e-9

    @given(st.floats(-5.0, 30.0))
    def test_ber_decreases_with_snr(self, snr):
        assert (bit_error_rate(snr + 3.0, Modulation.QPSK)
                <= bit_error_rate(snr, Modulation.QPSK) + 1e-12)


class TestPer:
    def test_longer_frames_fail_more(self):
        assert (packet_error_rate(10.0, 1500, OFDM_54)
                >= packet_error_rate(10.0, 100, OFDM_54))

    def test_bounds(self):
        assert packet_error_rate(-20.0, 1500, OFDM_54) == pytest.approx(1.0)
        assert packet_error_rate(50.0, 10, OFDM_6) == pytest.approx(0.0, abs=1e-12)

    def test_negative_length_rejected(self):
        with pytest.raises(LinkModelError):
            packet_error_rate(10.0, -1, OFDM_6)

    def test_delivery_threshold(self):
        assert frame_delivered(40.0, 100, HT_MCS7_SGI)
        assert not frame_delivered(-5.0, 100, HT_MCS7_SGI)
        with pytest.raises(LinkModelError):
            frame_delivered(10.0, 100, OFDM_6, per_threshold=1.5)


class TestRange:
    def test_range_grows_with_power(self):
        low = max_range_m(HT_MCS7_SGI, 0.0)
        high = max_range_m(HT_MCS7_SGI, 20.0)
        assert high > low > 0

    def test_slow_rates_reach_further(self):
        assert max_range_m(DSSS_1, 0.0) > max_range_m(HT_MCS7_SGI, 0.0)

    def test_paper_claim_72mbps_at_0dbm_is_meters(self):
        # §5.4: 72 Mbps at 0 dBm "has a similar range as BLE ... a few
        # meters". Our indoor model puts it in the single-digit-to-low-
        # double-digit metre range.
        range_m = max_range_m(HT_MCS7_SGI, 0.0)
        assert 2.0 < range_m < 25.0

    def test_range_table_shape(self):
        table = range_table((OFDM_6, OFDM_54), tx_power_dbm=10.0)
        assert [entry.rate for entry in table] == [OFDM_6, OFDM_54]
        assert all(isinstance(entry, RangeEstimate) for entry in table)
        assert table[0].max_range_m > table[1].max_range_m

    def test_zero_when_undecodable_everywhere(self):
        assert max_range_m(HT_MCS7_SGI, -90.0) == 0.0

    def test_bad_precision(self):
        with pytest.raises(ValueError):
            max_range_m(OFDM_6, 0.0, precision_m=0.0)

    def test_ofdm_ranges_ordered_by_rate(self):
        ranges = [max_range_m(rate, 15.0) for rate in OFDM_RATES]
        assert ranges == sorted(ranges, reverse=True)
