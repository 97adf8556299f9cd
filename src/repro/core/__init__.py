"""Wi-LE — the paper's contribution: connection-less WiFi for IoT.

An IoT device injects standard 802.11 beacon frames whose hidden SSID
keeps them out of AP pickers and whose vendor-specific information
element carries the sensor payload; every nearby WiFi device receives
them with no association, no handshake, and no infrastructure. This
package provides the message format, the beacon codec, the transmitting
device, the receiving sink, and the §6 extensions (payload encryption,
two-way windows, multi-device operation).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".codec": (
        "BeaconTemplate", "CodecError", "decode_beacon", "device_mac",
        "encode_beacon", "is_wile_beacon",
    ),
    ".crypto": (
        "WILE_MIC_BYTES", "DeviceKeyring", "WileCryptoError", "decrypt_body",
        "derive_device_key", "encrypt_body",
    ),
    ".device": ("WILE_TX_POWER_DBM", "TransmissionRecord", "WiLEDevice"),
    ".payload": (
        "WILE_VENDOR_TYPE", "WILE_VERSION", "FragmentReassembler",
        "PayloadError", "SensorKind", "SensorReading", "WileFlags",
        "WileMessage", "WileMessageType", "crc16_ccitt", "fragment_message",
    ),
    ".gateway": ("DeviceRecord", "WiLEGateway"),
    ".policy": ("DeltaPolicyStats", "DeltaTriggeredReporter", "PolicyError"),
    ".receiver": ("ReceivedMessage", "ReceiverStats", "WiLEReceiver"),
    ".scanner": ("ChannelScanner", "ScannerError", "ScanResult"),
    ".sink": ("WileMessageSink", "attach_to_access_point"),
    ".scheduler": (
        "RandomPhase", "SchedulerError", "SlottedPhase",
        "collision_probability",
    ),
    ".twoway": (
        "RESPONSE_GUARD_S", "DownlinkRecord", "TwoWayResponder",
        "always_on_rx_energy_j", "rx_window_energy_j",
    ),
})
