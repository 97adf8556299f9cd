"""The Wi-LE receiver: any WiFi device that can hear beacons.

Paper §4: "Upon receiving a WiFi beacon frame, the MAC layer forwards it
to higher layer ... Therefore an IoT device can transmit its data to
nearby WiFi devices by injecting WiFi beacon frames." This receiver
models the §5.3 evaluation setup (a WiFi card in monitor mode) and the
§4 application story (a phone app reading the OS scan results): a
monitor-mode radio whose receive callback feeds the shared Wi-LE message
pipeline (:class:`~repro.core.sink.WileMessageSink`) and keeps nothing
else it hears.
"""

from __future__ import annotations

from ..dot11 import MacAddress
from ..mac.monitor import monitor_radio
from ..sim import Position, Simulator, Transmission, WirelessMedium
from .crypto import DeviceKeyring
from .sink import MessageCallback, ReceivedMessage, ReceiverStats, WileMessageSink

__all__ = ["ReceivedMessage", "ReceiverStats", "WiLEReceiver"]


class WiLEReceiver:
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
        self.sim = sim
        self._sink = WileMessageSink(keyring=keyring,
                                     dedup_window=dedup_window)
        self.radio = monitor_radio(sim, medium, self._on_frame, mac=mac,
                                   position=position, channel=channel)

    # -- receive path ------------------------------------------------------------

    def _on_frame(self, frame: object, transmission: Transmission) -> None:
        self._sink.feed(frame, self.sim.now_s,
                        rate_mbps=transmission.rate.data_rate_mbps,
                        channel=transmission.channel)

    # -- pipeline delegation ------------------------------------------------------

    @property
    def keyring(self) -> DeviceKeyring:
        return self._sink.keyring

    @property
    def stats(self) -> ReceiverStats:
        return self._sink.stats

    @property
    def messages(self) -> list[ReceivedMessage]:
        return self._sink.messages

    @property
    def reassembled_bodies(self) -> list[tuple[int, bytes]]:
        return self._sink.reassembled_bodies

    def on_message(self, callback: MessageCallback) -> None:
        """Register a live-delivery callback."""
        self._sink.on_message(callback)

    def messages_from(self, device_id: int) -> list[ReceivedMessage]:
        return self._sink.messages_from(device_id)

    def devices_heard(self) -> set[int]:
        return self._sink.devices_heard()

    def latest_reading(self, device_id: int, kind) -> float | bytes | None:
        """Most recent reading of ``kind`` from ``device_id``, if any."""
        return self._sink.latest_reading(device_id, kind)

    # -- channel control ------------------------------------------------------------

    def set_channel(self, channel: int) -> None:
        """Retune the radio (used by the scanning helper)."""
        self.radio.set_channel(channel)

    @property
    def channel(self) -> int:
        return self.radio.channel
