"""Two-way Wi-LE — the paper's §6 downlink extension.

"An IoT device that utilizes Wi-LE can indicate in some beacon frames
that it will be ready to receive packets for a short time slot after the
current beacon. This way the waiting period will be limited to the time
slots specified by the IoT device and therefore the power consumption is
reduced significantly."

Uplink beacons carry an RX_WINDOW flag plus the window length in
milliseconds; the base-station side (:class:`TwoWayResponder`) watches
for those announcements and injects a *downlink beacon* — same trick,
reversed: a beacon whose Wi-LE message names the target device id —
inside the advertised window.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dot11 import MacAddress
from ..dot11.rates import WILE_DEFAULT_RATE, PhyRate
from ..energy import calibration as cal
from ..sim import Position, Radio, Simulator, WirelessMedium
from .codec import BeaconTemplate
from .payload import (
    SensorKind,
    SensorReading,
    WileFlags,
    WileMessage,
    WileMessageType,
)
from .receiver import ReceivedMessage, WiLEReceiver

#: Guard delay between hearing the uplink beacon and injecting the
#: response, giving the device time to switch from TX to RX.
RESPONSE_GUARD_S = 2e-3


@dataclass
class DownlinkRecord:
    """One command sent (or attempted) toward a device."""

    time_s: float
    device_id: int
    payload: bytes
    window_ms: int


class TwoWayResponder:
    """Base-station downlink injector for two-way Wi-LE.

    Args:
        sim / medium: simulation substrate.
        receiver: the Wi-LE receiver whose message stream announces
            windows (the responder piggybacks on its message stream).
        mac: source address for downlink beacons.
    """

    def __init__(self, sim: Simulator, medium: WirelessMedium,
                 receiver: WiLEReceiver,
                 mac: MacAddress | None = None,
                 position: Position | None = None,
                 channel: int = 6,
                 rate: PhyRate = WILE_DEFAULT_RATE) -> None:
        self.sim = sim
        self.rate = rate
        mac = mac if mac is not None else MacAddress.parse("02:57:4c:ff:00:01")
        self.radio = Radio(sim, medium, mac, position=position,
                           channel=channel, default_power_dbm=20.0)
        self.radio.power_on()
        self.template = BeaconTemplate(source=mac, channel=channel)
        self._queued: dict[int, list[bytes]] = {}
        self._sequence = 0
        self.sent: list[DownlinkRecord] = []
        receiver.on_message(self._on_uplink)

    def queue_command(self, device_id: int, payload: bytes) -> None:
        """Hold a command until the device next opens a window."""
        self._queued.setdefault(device_id, []).append(payload)

    def pending_for(self, device_id: int) -> int:
        return len(self._queued.get(device_id, []))

    def _on_uplink(self, received: ReceivedMessage) -> None:
        message = received.message
        if not message.flags & WileFlags.RX_WINDOW:
            return
        queue = self._queued.get(message.device_id)
        if not queue:
            return
        payload = queue.pop(0)
        window_ms = message.rx_window_ms
        record = DownlinkRecord(self.sim.now_s, message.device_id,
                                payload, window_ms)
        self.sent.append(record)
        self.sim.schedule(RESPONSE_GUARD_S,
                          lambda: self._inject(message.device_id, payload))

    def _inject(self, device_id: int, payload: bytes) -> None:
        self._sequence = (self._sequence + 1) & 0xFFFF
        downlink = WileMessage(
            device_id=device_id,  # addressed by target id, not ours
            sequence=self._sequence,
            message_type=WileMessageType.ACK_REQUEST,
            readings=(SensorReading(SensorKind.RAW, payload),))
        beacon = self.template.build(
            downlink, timestamp_us=int(self.sim.now_s * 1e6),
            sequence=self._sequence & 0xFFF)
        self.radio.transmit(beacon, self.rate)


def rx_window_energy_j(window_ms: float,
                       listen_current_a: float = cal.ESP32_WIFI_LISTEN_A,
                       supply_v: float = cal.SUPPLY_VOLTAGE_V) -> float:
    """Energy cost of keeping the receiver open for one window."""
    if window_ms < 0:
        raise ValueError("negative window")
    return window_ms / 1e3 * listen_current_a * supply_v


def always_on_rx_energy_j(interval_s: float,
                          listen_current_a: float = cal.ESP32_WIFI_LISTEN_A,
                          supply_v: float = cal.SUPPLY_VOLTAGE_V) -> float:
    """Energy of the naive alternative: receiver on the whole interval.

    The §6 argument is the ratio between this and
    :func:`rx_window_energy_j` — three to five orders of magnitude for
    minute-scale intervals and millisecond windows.
    """
    if interval_s <= 0:
        raise ValueError("interval must be positive")
    return interval_s * listen_current_a * supply_v
