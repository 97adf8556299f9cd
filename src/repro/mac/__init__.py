"""MAC-layer state machines: station, access point, monitor sniffer.

These implement §3 of the paper — the full cost of establishing and
maintaining an 802.11 connection — against which Wi-LE's connection-less
beacon injection is compared.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".access_point": (
        "BEACON_INTERVAL_S", "DTIM_PERIOD", "AccessPoint", "StationContext",
    ),
    ".csma": ("CW_MAX", "CW_MIN", "CsmaError", "CsmaStats", "CsmaTransmitter"),
    ".log": ("FrameDirection", "FrameLayer", "FrameLog", "FrameLogEntry"),
    ".monitor": ("Capture", "MonitorSniffer"),
    ".station": ("Station", "StationError", "StationState"),
})
