"""Frame airtime computation for 802.11b/g/n at 2.4 GHz.

Energy per packet in the paper is (power during TX) x (time on air plus
radio overheads), so airtime must be computed from the real PHY timing
rules rather than a naive bits/bitrate division:

* **DSSS/CCK** — 192 us long PLCP preamble+header (96 us short), then the
  PSDU at the data rate.
* **OFDM (802.11g)** — 16 us preamble + 4 us SIGNAL, then ceil((16 service
  bits + 8*length + 6 tail bits) / bits-per-symbol) 4 us symbols, plus the
  6 us signal extension required at 2.4 GHz.
* **HT mixed mode (802.11n)** — 36 us preamble for one spatial stream
  (L-STF 8 + L-LTF 8 + L-SIG 4 + HT-SIG 8 + HT-STF 4 + HT-LTF 4), then
  3.6/4.0 us symbols depending on guard interval.

MAC interframe spacings (SIFS/DIFS/slot) and ACK exchange durations are
also provided for the association-scenario timelines.
"""

from __future__ import annotations

import math

from .rates import OFDM_6, PhyFamily, PhyRate

#: MAC timing constants for 2.4 GHz (802.11g/n with short slot).
SIFS_US = 10.0
SLOT_US = 9.0
DIFS_US = SIFS_US + 2 * SLOT_US  # 28 us

#: OFDM PLCP: 8 us short training + 8 us long training + 4 us SIGNAL.
_OFDM_PREAMBLE_US = 16.0
_OFDM_SIGNAL_US = 4.0
#: 802.11g requires a 6 us no-transmission signal extension at 2.4 GHz.
_OFDM_SIGNAL_EXTENSION_US = 6.0

#: HT mixed-mode preamble for one spatial stream.
_HT_PREAMBLE_US = 8.0 + 8.0 + 4.0 + 8.0 + 4.0 + 4.0  # 36 us

#: DSSS PLCP preamble + header.
_DSSS_LONG_PREAMBLE_US = 144.0 + 48.0   # 192 us at 1 Mbps
_DSSS_SHORT_PREAMBLE_US = 72.0 + 24.0   # 96 us (header at 2 Mbps)

#: OFDM service + tail bits included in the DATA field.
_SERVICE_BITS = 16
_TAIL_BITS = 6

#: 802.11 ACK control frame is 14 bytes (10 header + 4 FCS).
ACK_BYTES = 14


class AirtimeError(ValueError):
    """Raised for nonsensical airtime queries (negative sizes etc.)."""


def frame_airtime_us(length_bytes: int, rate: PhyRate,
                     short_preamble: bool = True) -> float:
    """Time on air for a PSDU of ``length_bytes`` (including FCS) at ``rate``."""
    if length_bytes < 0:
        raise AirtimeError(f"negative frame length {length_bytes}")
    if rate.family is PhyFamily.DSSS:
        preamble = _DSSS_SHORT_PREAMBLE_US if short_preamble and rate.data_rate_mbps > 1 \
            else _DSSS_LONG_PREAMBLE_US
        payload_us = 8.0 * length_bytes / rate.data_rate_mbps
        return preamble + payload_us
    if rate.family is PhyFamily.OFDM:
        data_bits = _SERVICE_BITS + 8 * length_bytes + _TAIL_BITS
        symbols = math.ceil(data_bits / rate.bits_per_symbol)
        return (_OFDM_PREAMBLE_US + _OFDM_SIGNAL_US
                + symbols * rate.symbol_us + _OFDM_SIGNAL_EXTENSION_US)
    if rate.family is PhyFamily.HT:
        data_bits = _SERVICE_BITS + 8 * length_bytes + _TAIL_BITS
        symbols = math.ceil(data_bits / rate.bits_per_symbol)
        return _HT_PREAMBLE_US + symbols * rate.symbol_us + _OFDM_SIGNAL_EXTENSION_US
    raise AirtimeError(f"unknown PHY family {rate.family}")


def ack_airtime_us(data_rate: PhyRate) -> float:
    """Airtime of the ACK for a frame sent at ``data_rate``.

    Control responses go out at the highest *basic* rate not exceeding the
    data rate; for the OFDM/HT rates used here that is 24 Mbps or lower.
    We model the common case: ACK at OFDM-6 for OFDM/HT exchanges and
    DSSS-1 for DSSS exchanges — conservative and within a few us of any
    real AP's choice.
    """
    if data_rate.family is PhyFamily.DSSS:
        from .rates import DSSS_1
        return frame_airtime_us(ACK_BYTES, DSSS_1, short_preamble=False)
    return frame_airtime_us(ACK_BYTES, OFDM_6)


def data_exchange_us(length_bytes: int, rate: PhyRate,
                     with_ack: bool = True,
                     backoff_slots: int = 0) -> float:
    """Duration of one DIFS + backoff + DATA + SIFS + ACK exchange."""
    if backoff_slots < 0:
        raise AirtimeError("negative backoff")
    total = DIFS_US + backoff_slots * SLOT_US + frame_airtime_us(length_bytes, rate)
    if with_ack:
        total += SIFS_US + ack_airtime_us(rate)
    return total
