"""PHY rate tables for 802.11b/g/n, as supported by the ESP32 radio.

Three PHY families matter for the reproduction:

* **DSSS/CCK** (802.11b): 1, 2, 5.5, 11 Mbps — long/short preamble.
* **OFDM** (802.11g): 6..54 Mbps, 20 MHz.
* **HT** (802.11n single stream, MCS 0-7): 6.5..72.2 Mbps at 20 MHz,
  with long (800 ns) or short (400 ns) guard interval.

The paper's Wi-LE measurement uses "a physical bitrate of 72 Mbps" — i.e.
HT MCS 7 with a short guard interval (72.2 Mbps).

Each entry carries everything the airtime model (:mod:`repro.dot11.airtime`)
and link model (:mod:`repro.phy.link`) need: data rate, modulation,
coding rate, and bits per OFDM symbol.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class PhyFamily(enum.Enum):
    """The PHY generation a rate belongs to."""

    DSSS = "dsss"   # 802.11b DSSS/CCK
    OFDM = "ofdm"   # 802.11a/g OFDM
    HT = "ht"       # 802.11n high throughput


class Modulation(enum.Enum):
    """Constellation used on the air, for the SNR->BER link model."""

    DBPSK = "dbpsk"
    DQPSK = "dqpsk"
    CCK = "cck"
    BPSK = "bpsk"
    QPSK = "qpsk"
    QAM16 = "qam16"
    QAM64 = "qam64"
    GFSK = "gfsk"   # used by BLE, shared via the same link model


@dataclass(frozen=True, slots=True)
class PhyRate:
    """One physical-layer rate option.

    Attributes:
        name: human-readable label, e.g. ``"HT-MCS7-SGI"``.
        family: PHY generation.
        data_rate_mbps: nominal PHY data rate in Mbit/s.
        modulation: constellation, for BER curves.
        coding_rate: FEC code rate (1.0 for uncoded DSSS).
        bits_per_symbol: data bits per OFDM symbol (OFDM/HT only, else 0).
        symbol_us: OFDM symbol duration in microseconds (0 for DSSS).
        min_snr_db: rule-of-thumb receiver sensitivity SNR for this rate.
    """

    name: str
    family: PhyFamily
    data_rate_mbps: float
    modulation: Modulation
    coding_rate: float
    bits_per_symbol: int
    symbol_us: float
    min_snr_db: float

    @property
    def data_rate_bps(self) -> float:
        return self.data_rate_mbps * 1e6

    def __str__(self) -> str:
        return self.name


def _dsss(name: str, mbps: float, mod: Modulation, snr: float) -> PhyRate:
    return PhyRate(name, PhyFamily.DSSS, mbps, mod, 1.0, 0, 0.0, snr)


def _ofdm(name: str, mbps: float, mod: Modulation, cr: float, nbits: int, snr: float) -> PhyRate:
    return PhyRate(name, PhyFamily.OFDM, mbps, mod, cr, nbits, 4.0, snr)


def _ht(name: str, mbps: float, mod: Modulation, cr: float, nbits: int,
        symbol_us: float, snr: float) -> PhyRate:
    return PhyRate(name, PhyFamily.HT, mbps, mod, cr, nbits, symbol_us, snr)


# -- 802.11b DSSS/CCK ------------------------------------------------------

DSSS_1 = _dsss("DSSS-1", 1.0, Modulation.DBPSK, 4.0)
DSSS_2 = _dsss("DSSS-2", 2.0, Modulation.DQPSK, 6.0)
CCK_5_5 = _dsss("CCK-5.5", 5.5, Modulation.CCK, 8.0)
CCK_11 = _dsss("CCK-11", 11.0, Modulation.CCK, 10.0)

# -- 802.11g OFDM (20 MHz, 48 data subcarriers, 4 us symbols) --------------

OFDM_6 = _ofdm("OFDM-6", 6.0, Modulation.BPSK, 1 / 2, 24, 5.0)
OFDM_9 = _ofdm("OFDM-9", 9.0, Modulation.BPSK, 3 / 4, 36, 6.0)
OFDM_12 = _ofdm("OFDM-12", 12.0, Modulation.QPSK, 1 / 2, 48, 7.0)
OFDM_18 = _ofdm("OFDM-18", 18.0, Modulation.QPSK, 3 / 4, 72, 9.0)
OFDM_24 = _ofdm("OFDM-24", 24.0, Modulation.QAM16, 1 / 2, 96, 12.0)
OFDM_36 = _ofdm("OFDM-36", 36.0, Modulation.QAM16, 3 / 4, 144, 16.0)
OFDM_48 = _ofdm("OFDM-48", 48.0, Modulation.QAM64, 2 / 3, 192, 20.0)
OFDM_54 = _ofdm("OFDM-54", 54.0, Modulation.QAM64, 3 / 4, 216, 21.0)

# -- 802.11n HT, single spatial stream, 20 MHz ------------------------------
# Long GI: 4.0 us symbols; short GI: 3.6 us symbols (data rate x 10/9).

HT_MCS0 = _ht("HT-MCS0", 6.5, Modulation.BPSK, 1 / 2, 26, 4.0, 5.0)
HT_MCS1 = _ht("HT-MCS1", 13.0, Modulation.QPSK, 1 / 2, 52, 4.0, 7.0)
HT_MCS2 = _ht("HT-MCS2", 19.5, Modulation.QPSK, 3 / 4, 78, 4.0, 9.0)
HT_MCS3 = _ht("HT-MCS3", 26.0, Modulation.QAM16, 1 / 2, 104, 4.0, 12.0)
HT_MCS4 = _ht("HT-MCS4", 39.0, Modulation.QAM16, 3 / 4, 156, 4.0, 16.0)
HT_MCS5 = _ht("HT-MCS5", 52.0, Modulation.QAM64, 2 / 3, 208, 4.0, 20.0)
HT_MCS6 = _ht("HT-MCS6", 58.5, Modulation.QAM64, 3 / 4, 234, 4.0, 21.0)
HT_MCS7 = _ht("HT-MCS7", 65.0, Modulation.QAM64, 5 / 6, 260, 4.0, 23.0)
HT_MCS7_SGI = _ht("HT-MCS7-SGI", 72.2, Modulation.QAM64, 5 / 6, 260, 3.6, 23.0)

#: The rate the paper uses for Wi-LE transmissions ("72 Mbps").
WILE_DEFAULT_RATE = HT_MCS7_SGI

#: TX power for Wi-LE injections (paper §5.4: 0 dBm, BLE-like range).
WILE_TX_POWER_DBM = 0.0

DSSS_RATES: tuple[PhyRate, ...] = (DSSS_1, DSSS_2, CCK_5_5, CCK_11)
OFDM_RATES: tuple[PhyRate, ...] = (
    OFDM_6, OFDM_9, OFDM_12, OFDM_18, OFDM_24, OFDM_36, OFDM_48, OFDM_54,
)
HT_RATES: tuple[PhyRate, ...] = (
    HT_MCS0, HT_MCS1, HT_MCS2, HT_MCS3, HT_MCS4, HT_MCS5, HT_MCS6, HT_MCS7,
    HT_MCS7_SGI,
)
ALL_RATES: tuple[PhyRate, ...] = DSSS_RATES + OFDM_RATES + HT_RATES

_BY_NAME = {rate.name: rate for rate in ALL_RATES}


def rate_by_name(name: str) -> PhyRate:
    """Look up a rate by its label; raises ``KeyError`` with options listed."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown rate {name!r}; one of {sorted(_BY_NAME)}") from None


def supported_rates_ie_values(rates: tuple[PhyRate, ...] = DSSS_RATES + OFDM_RATES[:4]) -> list[int]:
    """Encode rates for a Supported Rates information element.

    Values are in units of 500 kbps; the basic-rate flag (0x80) is set on
    the 802.11b mandatory rates, matching what commodity APs advertise.
    """
    basic = {1.0, 2.0, 5.5, 11.0}
    values = []
    for rate in rates:
        value = int(round(rate.data_rate_mbps * 2))
        if rate.data_rate_mbps in basic:
            value |= 0x80
        values.append(value)
    return values
