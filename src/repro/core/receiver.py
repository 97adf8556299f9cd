"""The Wi-LE receiver: any WiFi device that can hear beacons.

Paper §4: "Upon receiving a WiFi beacon frame, the MAC layer forwards it
to higher layer ... Therefore an IoT device can transmit its data to
nearby WiFi devices by injecting WiFi beacon frames." This receiver
models the §5.3 evaluation setup (a WiFi card in monitor mode) and the
§4 application story (a phone app reading the OS scan results): a
monitor-mode radio whose receive callback feeds the shared Wi-LE message
pipeline (:class:`~repro.core.sink.WileMessageSink`, which the receiver
extends) and keeps nothing else it hears.
"""

from __future__ import annotations

from ..dot11 import MacAddress
from ..mac.monitor import monitor_radio
from ..sim import Position, Simulator, Transmission, WirelessMedium
from .crypto import DeviceKeyring
from .sink import ReceivedMessage, ReceiverStats, WileMessageSink

__all__ = ["ReceivedMessage", "ReceiverStats", "WiLEReceiver"]


class WiLEReceiver(WileMessageSink):
    """Monitor-mode Wi-LE message sink with dedup and decryption.

    Args:
        sim / medium: simulation substrate.
        channel: the channel to sniff.
        keyring: keys for encrypted devices (§6 security extension).
        dedup_window: recent sequence numbers remembered per device.
    """

    def __init__(self, sim: Simulator, medium: WirelessMedium,
                 mac: MacAddress | None = None,
                 position: Position | None = None,
                 channel: int = 6,
                 keyring: DeviceKeyring | None = None,
                 dedup_window: int = 64) -> None:
        super().__init__(keyring=keyring, dedup_window=dedup_window)
        self.sim = sim
        self.radio = monitor_radio(sim, medium, self._on_frame, mac=mac,
                                   position=position, channel=channel)

    def _on_frame(self, frame: object, transmission: Transmission) -> None:
        self.feed(frame, self.sim.now_s,
                  rate_mbps=transmission.rate.data_rate_mbps,
                  channel=transmission.channel)

    # -- channel control ------------------------------------------------------------

    def set_channel(self, channel: int) -> None:
        """Retune the radio (used by the scanning helper)."""
        self.radio.set_channel(channel)

    @property
    def channel(self) -> int:
        return self.radio.channel
