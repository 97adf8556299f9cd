"""802.11 frame layer: addresses, information elements, frames, airtime.

This package is a from-scratch implementation of the subset of IEEE
802.11 the Wi-LE reproduction exercises: management frames and the
information elements they carry (beacons with hidden SSIDs and
vendor-specific payloads are the heart of Wi-LE), control frames, data
frames for the WPA2/DHCP/ARP association sequence, the frame check
sequence, PHY rate tables, and per-rate airtime computation.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".airtime": (
        "ACK_BYTES", "DIFS_US", "SIFS_US", "SLOT_US", "AirtimeError",
        "ack_airtime_us", "frame_airtime_us",
    ),
    ".channels": (
        "CHANNELS_2_4GHZ", "CHANNELS_5GHZ", "NON_OVERLAPPING_2_4GHZ", "Band",
        "ChannelError", "band_of", "channel_frequency_hz", "channels_in_band",
        "supports_dsss",
    ),
    ".elements": (
        "VENDOR_IE_MAX_DATA", "Country", "DsssParameterSet", "Element",
        "ElementError", "ElementId", "Erp", "ExtendedSupportedRates",
        "HtCapabilities", "RawElement", "Rsn", "Ssid", "SupportedRates", "Tim",
        "VendorSpecific", "encode_elements", "find_element",
        "find_vendor_element", "parse_elements",
    ),
    ".fcs": ("append_fcs", "check_fcs", "crc32", "strip_fcs"),
    ".frames": (
        "Ack", "AssociationRequest", "AssociationResponse", "AuthAlgorithm",
        "Authentication", "Beacon", "CapabilityInfo", "ControlSubtype",
        "DataFrame", "DataSubtype", "Deauthentication", "Disassociation",
        "FrameControl", "FrameError", "FrameType", "ManagementFrame",
        "ManagementSubtype", "ProbeRequest", "PsPoll", "ReasonCode",
        "StatusCode", "null_frame",
    ),
    ".mac": ("WILE_OUI", "MacAddress", "MacAddressError"),
    ".parser": ("ParsedFrame", "ParseError", "parse_frame"),
    ".show": ("show", "summarize"),
    ".rates": (
        "ALL_RATES", "DSSS_RATES", "HT_RATES", "OFDM_RATES",
        "WILE_DEFAULT_RATE", "Modulation", "PhyFamily", "PhyRate",
        "rate_by_name", "supported_rates_ie_values",
    ),
})
