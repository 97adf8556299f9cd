"""A monitor-mode sniffer: the capture tool behind pcap exports.

In the paper's Wi-LE evaluation, "the AP (i.e. another WiFi card) is in
the monitor mode to receive and verify these beacon frames" (§5.3). The
sniffer captures every decodable frame on its channel with no address
filtering and keeps every capture (the parsed frame plus its wire
bytes), for :func:`repro.testbed.pcap.write_pcap` and for assertions.
Keeping them is its job, so its memory grows with what it hears; a
:class:`repro.core.receiver.WiLEReceiver` listens through its own
:func:`monitor_radio` and keeps nothing it hears.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dot11.mac import MacAddress
from ..sim import Position, Radio, Simulator, Transmission, WirelessMedium
from ..sim.radio import RxCallback

#: The address of a monitor radio built without one.
MONITOR_MAC = MacAddress.parse("02:00:00:00:00:fe")


def monitor_radio(sim: Simulator, medium: WirelessMedium, on_frame: RxCallback,
                  mac: MacAddress | None = None,
                  position: Position | None = None,
                  channel: int = 6) -> Radio:
    """A powered-on monitor-mode radio that hands each frame to ``on_frame``.

    The sniffer and the Wi-LE receiver both listen through one, so either
    placed alike hears the same frames in the same order.
    """
    radio = Radio(sim, medium, mac if mac is not None else MONITOR_MAC,
                  position=position, channel=channel)
    radio.rx_callback = on_frame
    radio.power_on(monitor=True)
    return radio


@dataclass(frozen=True, slots=True)
class Capture:
    """One sniffed frame."""

    time_s: float
    frame: object
    frame_bytes: bytes
    rate_mbps: float
    channel: int


class MonitorSniffer:
    """Promiscuous capture of everything decodable on one channel."""

    def __init__(self, sim: Simulator, medium: WirelessMedium,
                 mac: MacAddress | None = None,
                 position: Position | None = None,
                 channel: int = 6) -> None:
        self.sim = sim
        self.captures: list[Capture] = []
        self.radio = monitor_radio(sim, medium, self._on_frame, mac=mac,
                                   position=position, channel=channel)

    def _on_frame(self, frame: object, transmission: Transmission) -> None:
        self.captures.append(Capture(
            time_s=self.sim.now_s,
            frame=frame,
            frame_bytes=transmission.frame_bytes,
            rate_mbps=transmission.rate.data_rate_mbps,
            channel=transmission.channel))

    def frames_of_type(self, kind: type) -> list[object]:
        return [capture.frame for capture in self.captures
                if isinstance(capture.frame, kind)]

    def clear(self) -> None:
        self.captures.clear()

    def __len__(self) -> int:
        return len(self.captures)
