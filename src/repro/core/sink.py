"""The Wi-LE message pipeline, independent of the radio feeding it.

Two kinds of stations collect Wi-LE messages in the paper's story:
monitor-mode receivers (§5.3's second WiFi card) and *existing
infrastructure* ("when available, Wi-LE can utilize existing WiFi
infrastructure", §1) — an access point already hears every beacon on
its channel through its normal receive path. Both need the same
pipeline: filter for Wi-LE beacons, pick the right key, decode,
deduplicate, reassemble fragments, and fan out callbacks. This module
is that pipeline; :class:`~repro.core.receiver.WiLEReceiver` feeds it
from a monitor-mode radio, and :func:`attach_to_access_point` feeds it
from an AP's beacon stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..dot11 import Beacon, MacAddress, find_vendor_element
from ..dot11.mac import WILE_OUI
from .codec import CodecError, decode_beacon, is_wile_beacon
from .crypto import DeviceKeyring
from .payload import WILE_VENDOR_TYPE, FragmentReassembler, WileFlags, WileMessage

if TYPE_CHECKING:
    from ..mac.access_point import AccessPoint


@dataclass(frozen=True, slots=True)
class ReceivedMessage:
    """A decoded, deduplicated Wi-LE message with capture metadata."""

    time_s: float
    message: WileMessage
    source: MacAddress
    rate_mbps: float
    channel: int


@dataclass
class ReceiverStats:
    """Counters a deployment would export."""

    beacons_seen: int = 0
    wile_beacons: int = 0
    decoded: int = 0
    duplicates: int = 0
    decode_failures: int = 0
    undecryptable: int = 0
    fragments_reassembled: int = 0


MessageCallback = Callable[[ReceivedMessage], None]


class WileMessageSink:
    """Decode/dedup/reassemble pipeline for a stream of beacons."""

    def __init__(self, keyring: DeviceKeyring | None = None,
                 dedup_window: int = 64) -> None:
        if dedup_window <= 0:
            raise ValueError("dedup window must be positive")
        self.keyring = keyring if keyring is not None else DeviceKeyring()
        self.stats = ReceiverStats()
        self.messages: list[ReceivedMessage] = []
        self.reassembled_bodies: list[tuple[int, bytes]] = []
        self._callbacks: list[MessageCallback] = []
        self._recent: dict[int, list[int]] = {}
        self._dedup_window = dedup_window
        self._reassembler = FragmentReassembler()

    def on_message(self, callback: MessageCallback) -> None:
        """Register a live-delivery callback."""
        self._callbacks.append(callback)

    # -- feeding ---------------------------------------------------------------

    def feed(self, frame: object, time_s: float,
             rate_mbps: float = 0.0, channel: int = 0) -> ReceivedMessage | None:
        """Offer one received frame; returns the message if it was a
        fresh, decodable Wi-LE beacon."""
        if not isinstance(frame, Beacon):
            return None
        self.stats.beacons_seen += 1
        if not is_wile_beacon(frame):
            return None
        self.stats.wile_beacons += 1
        message = self._decode(frame)
        if message is None:
            return None
        if self._is_duplicate(message):
            self.stats.duplicates += 1
            return None
        self.stats.decoded += 1
        received = ReceivedMessage(time_s=time_s, message=message,
                                   source=frame.source,
                                   rate_mbps=rate_mbps, channel=channel)
        self.messages.append(received)
        if message.flags & WileFlags.FRAGMENT:
            body = self._reassembler.add(message)
            if body is not None:
                self.stats.fragments_reassembled += 1
                self.reassembled_bodies.append((message.device_id, body))
        for callback in self._callbacks:
            callback(received)
        return received

    def _decode(self, frame: Beacon) -> WileMessage | None:
        vendor = find_vendor_element(list(frame.elements), WILE_OUI,
                                     WILE_VENDOR_TYPE)
        if vendor is None or len(vendor.data) < 9:
            self.stats.decode_failures += 1
            return None
        device_id = int.from_bytes(vendor.data[1:5], "little")
        decrypt = self.keyring.decryptor_for(device_id)
        try:
            return decode_beacon(frame, decrypt=decrypt)
        except CodecError as error:
            if "no key" in str(error) or "encrypted" in str(error):
                self.stats.undecryptable += 1
            else:
                self.stats.decode_failures += 1
            return None

    def _is_duplicate(self, message: WileMessage) -> bool:
        recent = self._recent.setdefault(message.device_id, [])
        key = (message.sequence << 8) | message.fragment_index
        if key in recent:
            return True
        recent.append(key)
        if len(recent) > self._dedup_window:
            del recent[0]
        return False

    # -- queries ---------------------------------------------------------------

    def messages_from(self, device_id: int) -> list[ReceivedMessage]:
        return [received for received in self.messages
                if received.message.device_id == device_id]

    def devices_heard(self) -> set[int]:
        return {received.message.device_id for received in self.messages}

    def latest_reading(self, device_id: int, kind) -> float | bytes | None:
        """Most recent reading of ``kind`` from ``device_id``, if any."""
        for received in reversed(self.messages):
            if received.message.device_id != device_id:
                continue
            for reading in received.message.readings:
                if reading.kind is kind:
                    return reading.value
        return None


def attach_to_access_point(ap: "AccessPoint",
                           keyring: DeviceKeyring | None = None,
                           dedup_window: int = 64) -> WileMessageSink:
    """Turn an existing AP into a Wi-LE collector (the §1 story).

    The AP's normal receive path already passes broadcast beacons up;
    this hooks its beacon stream into a message sink — no monitor mode,
    no second radio, no change to the AP's client-serving duties.
    """
    sink = WileMessageSink(keyring=keyring, dedup_window=dedup_window)
    previous = ap.beacon_callback

    def on_beacon(frame: Beacon) -> None:
        if previous is not None:
            previous(frame)
        sink.feed(frame, ap.sim.now_s, channel=ap.channel)

    ap.beacon_callback = on_beacon
    return sink
