"""BLE substrate: link-layer packets, whitening, CRC-24, event timing.

The paper compares Wi-LE against Bluetooth Low Energy as measured on a
TI CC2541 (its Table 1 BLE column). This package provides the BLE side
of that comparison: real link-layer packet formats and the connection
event machinery whose timing the CC2541 energy model
(:mod:`repro.energy.cc2541`) integrates over.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".advertiser": ("BleConnection", "ConnectionEventRecord"),
    ".airtime": (
        "BLE_BIT_RATE_BPS", "T_IFS_US", "airtime_us", "energy_per_bit_nj",
        "pdu_airtime_us",
    ),
    ".crc24": (
        "ADVERTISING_CRC_INIT", "Crc24Error", "append_crc", "check_crc",
        "crc24",
    ),
    ".packets": (
        "ADVERTISING_ACCESS_ADDRESS", "ADVERTISING_CHANNELS",
        "MAX_ADV_DATA_BYTES", "AdvertisingPdu", "AdvPduType", "BlePacketError",
        "DataLlid", "DataPdu", "decode_on_air", "encode_on_air",
        "on_air_bytes", "whitening_index_for_channel",
    ),
    ".whitening": ("WhiteningError", "whiten"),
})
