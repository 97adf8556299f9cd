"""Wi-LE: Can WiFi Replace Bluetooth? — a full-system reproduction.

Reproduces Abedi, Abari and Brecht's HotNets '19 paper in software: a
connection-less, WiFi-compatible transmission scheme for low-power IoT
devices that injects 802.11 beacon frames (hidden SSID, sensor data in a
vendor-specific information element) instead of ever associating with an
access point, reaching BLE-class energy per message.

Because the paper's artifacts are physical (an ESP32 module, a Google
WiFi AP, a bench multimeter, a CC2541 BLE chip), the reproduction builds
faithful software substrates for all of them — an 802.11 frame/MAC/WPA2
stack, a discrete-event wireless simulator, a BLE link layer, calibrated
device power models, and a simulated bench multimeter — and reruns the
paper's evaluation on top. See DESIGN.md for the substitution map and
EXPERIMENTS.md for paper-vs-measured numbers.

Quick start::

    from repro import (Simulator, WirelessMedium, Position,
                       WiLEDevice, WiLEReceiver, SensorReading, SensorKind)

    sim = Simulator()
    air = WirelessMedium(sim)
    sensor = WiLEDevice(sim, air, device_id=0x17, position=Position(0, 0))
    phone = WiLEReceiver(sim, air, position=Position(3, 0))
    sensor.start(600.0, lambda: (SensorReading(SensorKind.TEMPERATURE_C, 17.0),))
    sim.run(until_s=3600.0)
    phone.latest_reading(0x17, SensorKind.TEMPERATURE_C)  # -> 17.0
"""

from ._lazy import lazy_exports

__version__ = "1.6.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".ble": (),
    ".core": (
        "DeviceKeyring", "ReceivedMessage", "SensorKind", "SensorReading",
        "TwoWayResponder", "WiLEDevice", "WiLEReceiver", "WileFlags",
        "WileMessage", "WileMessageType", "decode_beacon", "encode_beacon",
        "is_wile_beacon",
    ),
    ".dot11": ("Beacon", "MacAddress", "PhyRate", "VendorSpecific"),
    ".energy": ("CR2032", "Battery", "CurrentTrace", "DutyCycleProfile"),
    ".experiments": (),
    ".faults": (),
    ".mac": ("AccessPoint", "MonitorSniffer", "Station"),
    ".netproto": (),
    ".obs": ("METRICS", "AuditReport", "MetricsRegistry"),
    ".phy": (),
    ".scenarios": (
        "ScenarioResult", "run_all_scenarios", "run_ble", "run_wifi_dc",
        "run_wifi_ps", "run_wile",
    ),
    ".security": (),
    ".sim": (
        "JitteryClock", "Position", "Radio", "Simulator", "WirelessMedium",
    ),
    ".testbed": ("Keysight34465A",),
})
