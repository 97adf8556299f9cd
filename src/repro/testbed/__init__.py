"""Simulated lab equipment: the paper's bench multimeter and a pcap
writer for captured frames."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".multimeter": (
        "CURRENT_RANGES", "MAX_SAMPLE_RATE_HZ", "Keysight34465A",
        "MultimeterError", "Reading",
    ),
    ".pcap": (
        "LINKTYPE_IEEE802_11", "PcapError", "PcapPacket", "parse_pcap",
        "pcap_bytes", "read_pcap", "write_pcap",
    ),
})
