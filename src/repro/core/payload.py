"""The Wi-LE application message format.

The paper leaves the vendor-IE contents open ("does not have any
specific format and can therefore be used to transmit a string", §4.1)
but §6 dictates what a deployable format needs: *unique identifiers* so
messages from multiple IoT devices can be distinguished, sequence
numbers so receivers can deduplicate rebroadcasts, room for sensor
readings, and hooks for the security and two-way extensions.

Wire layout (all little-endian), max 249 bytes to fit a vendor IE after
its OUI + type:

    version(1) device_id(4) seq(2) msg_type(1) flags(1)
    [window_ms(2) if FLAG_RX_WINDOW]
    [frag_index(1) frag_total(1) if FLAG_FRAGMENT]
    body (TLV sensor readings, or ciphertext||MIC if FLAG_ENCRYPTED)
    crc16(2)

The trailing CRC-16 (CCITT-FALSE) protects against a receiver-side OS
truncating or mangling the IE it hands to the application — the 802.11
FCS is not visible above the driver on the phones the paper targets.
Every encode stamps it and every decode checks it, so ``crc16_ccitt``
is the stdlib's ``binascii.crc_hqx`` (C speed); the table-driven
``crc16_ccitt_reference`` is the reference the tests check it against.
"""

from __future__ import annotations

import enum
import struct
from binascii import crc_hqx
from dataclasses import dataclass, field

from ..dot11.elements import VENDOR_IE_MAX_DATA

WILE_VERSION = 1

#: Vendor-specific element type byte identifying Wi-LE beacons.
WILE_VENDOR_TYPE = 0x4C

_HEADER = struct.Struct("<BIHBB")
_CRC_BYTES = 2


class WileMessageType(enum.IntEnum):
    SENSOR_DATA = 1
    HELLO = 2
    FRAGMENT = 3
    ACK_REQUEST = 4


class WileFlags(enum.IntFlag):
    NONE = 0
    ENCRYPTED = 0x01
    RX_WINDOW = 0x02
    FRAGMENT = 0x04


class SensorKind(enum.IntEnum):
    TEMPERATURE_C = 1     # int16 centi-degrees Celsius
    HUMIDITY_PCT = 2      # uint16 centi-percent
    BATTERY_MV = 3        # uint16 millivolts
    PRESSURE_PA = 4       # uint32 pascals
    COUNTER = 5           # uint32
    RAW = 0x7F            # opaque bytes


class PayloadError(ValueError):
    """Raised for malformed Wi-LE messages."""


def _build_crc16_table() -> tuple[int, ...]:
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
        table.append(crc)
    return tuple(table)


_CRC16_TABLE = _build_crc16_table()


def crc16_ccitt(data: bytes) -> int:
    """CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, no final XOR)."""
    return crc_hqx(data, 0xFFFF)


def crc16_ccitt_reference(data: bytes) -> int:
    """:func:`crc16_ccitt` from first principles, one table lookup per
    byte."""
    crc = 0xFFFF
    table = _CRC16_TABLE
    for byte in data:
        crc = ((crc << 8) & 0xFFFF) ^ table[(crc >> 8) ^ byte]
    return crc


@dataclass(frozen=True, slots=True)
class SensorReading:
    """One measured quantity, encoded fixed-point on the wire."""

    kind: SensorKind
    value: float | bytes

    def encode(self) -> bytes:
        if self.kind is SensorKind.TEMPERATURE_C:
            raw = struct.pack("<h", _bounded(round(self.value * 100),
                                             -(1 << 15), (1 << 15) - 1))
        elif self.kind is SensorKind.HUMIDITY_PCT:
            raw = struct.pack("<H", _bounded(round(self.value * 100), 0, 0xFFFF))
        elif self.kind is SensorKind.BATTERY_MV:
            raw = struct.pack("<H", _bounded(round(self.value), 0, 0xFFFF))
        elif self.kind is SensorKind.PRESSURE_PA:
            raw = struct.pack("<I", _bounded(round(self.value), 0, 0xFFFFFFFF))
        elif self.kind is SensorKind.COUNTER:
            raw = struct.pack("<I", _bounded(round(self.value), 0, 0xFFFFFFFF))
        elif self.kind is SensorKind.RAW:
            if not isinstance(self.value, (bytes, bytearray)):
                raise PayloadError("RAW reading value must be bytes")
            raw = bytes(self.value)
        else:
            raise PayloadError(f"unknown sensor kind {self.kind}")
        if len(raw) > 255:
            raise PayloadError("reading too large for TLV")
        return bytes([int(self.kind), len(raw)]) + raw

    @classmethod
    def decode_all(cls, body: bytes) -> list["SensorReading"]:
        readings = []
        pos = 0
        while pos < len(body):
            if pos + 2 > len(body):
                raise PayloadError("truncated reading TLV header")
            kind_value, length = body[pos], body[pos + 1]
            raw = body[pos + 2:pos + 2 + length]
            if len(raw) != length:
                raise PayloadError("truncated reading TLV value")
            try:
                kind = SensorKind(kind_value)
            except ValueError:
                raise PayloadError(f"unknown sensor kind {kind_value}") from None
            readings.append(cls(kind, _decode_value(kind, raw)))
            pos += 2 + length
        return readings


def _bounded(value: int, low: int, high: int) -> int:
    if not low <= value <= high:
        raise PayloadError(f"value {value} out of range [{low}, {high}]")
    return value


def _decode_value(kind: SensorKind, raw: bytes) -> float | bytes:
    if kind is SensorKind.TEMPERATURE_C:
        return struct.unpack("<h", raw)[0] / 100.0
    if kind is SensorKind.HUMIDITY_PCT:
        return struct.unpack("<H", raw)[0] / 100.0
    if kind is SensorKind.BATTERY_MV:
        return float(struct.unpack("<H", raw)[0])
    if kind in (SensorKind.PRESSURE_PA, SensorKind.COUNTER):
        return float(struct.unpack("<I", raw)[0])
    return raw


@dataclass(frozen=True, slots=True)
class WileMessage:
    """A decoded (or to-be-encoded) Wi-LE application message."""

    device_id: int
    sequence: int
    message_type: WileMessageType = WileMessageType.SENSOR_DATA
    readings: tuple[SensorReading, ...] = ()
    flags: WileFlags = WileFlags.NONE
    rx_window_ms: int = 0
    fragment_index: int = 0
    fragment_total: int = 1
    raw_body: bytes | None = None  # set instead of readings for fragments

    def __post_init__(self) -> None:
        if not 0 <= self.device_id < (1 << 32):
            raise PayloadError(f"device id {self.device_id} out of 32-bit range")
        if not 0 <= self.sequence < (1 << 16):
            raise PayloadError(f"sequence {self.sequence} out of 16-bit range")
        if self.flags & WileFlags.RX_WINDOW and not 0 < self.rx_window_ms <= 0xFFFF:
            raise PayloadError("RX window must be 1..65535 ms when flagged")
        if self.flags & WileFlags.FRAGMENT:
            if not (0 <= self.fragment_index < self.fragment_total <= 255):
                raise PayloadError("bad fragment numbering")

    # -- encoding -------------------------------------------------------------

    def body_bytes(self) -> bytes:
        if self.raw_body is not None:
            return self.raw_body
        return b"".join(reading.encode() for reading in self.readings)

    def encode(self) -> bytes:
        header = _HEADER.pack(WILE_VERSION, self.device_id, self.sequence,
                              int(self.message_type), int(self.flags))
        extras = b""
        if self.flags & WileFlags.RX_WINDOW:
            extras += struct.pack("<H", self.rx_window_ms)
        if self.flags & WileFlags.FRAGMENT:
            extras += bytes([self.fragment_index, self.fragment_total])
        blob = header + extras + self.body_bytes()
        blob += struct.pack("<H", crc16_ccitt(blob))
        if len(blob) > VENDOR_IE_MAX_DATA:
            raise PayloadError(
                f"message {len(blob)}B exceeds the {VENDOR_IE_MAX_DATA}B "
                "vendor IE capacity; fragment it (see fragment_message)")
        return blob

    # -- decoding --------------------------------------------------------------

    @classmethod
    def decode(cls, blob: bytes, decrypt=None) -> "WileMessage":
        """Parse a vendor-IE payload back into a message.

        Args:
            blob: the vendor IE data field.
            decrypt: optional callable ``(header_bytes, ciphertext) ->
                plaintext`` applied when the ENCRYPTED flag is set (see
                :mod:`repro.core.crypto`).
        """
        if len(blob) < _HEADER.size + _CRC_BYTES:
            raise PayloadError(f"message too short: {len(blob)} bytes")
        expected_crc = struct.unpack("<H", blob[-_CRC_BYTES:])[0]
        if crc16_ccitt(blob[:-_CRC_BYTES]) != expected_crc:
            raise PayloadError("CRC16 mismatch")
        version, device_id, sequence, type_value, flag_value = _HEADER.unpack(
            blob[:_HEADER.size])
        if version != WILE_VERSION:
            raise PayloadError(f"unsupported Wi-LE version {version}")
        flags = WileFlags(flag_value)
        pos = _HEADER.size
        rx_window_ms = 0
        if flags & WileFlags.RX_WINDOW:
            rx_window_ms = struct.unpack("<H", blob[pos:pos + 2])[0]
            pos += 2
        fragment_index, fragment_total = 0, 1
        if flags & WileFlags.FRAGMENT:
            fragment_index, fragment_total = blob[pos], blob[pos + 1]
            pos += 2
        body = blob[pos:-_CRC_BYTES]
        if flags & WileFlags.ENCRYPTED:
            if decrypt is None:
                raise PayloadError("message is encrypted and no key was given")
            body = decrypt(blob[:_HEADER.size], body)
        readings: tuple[SensorReading, ...] = ()
        raw_body: bytes | None = None
        if flags & WileFlags.FRAGMENT:
            raw_body = body
        else:
            readings = tuple(SensorReading.decode_all(body))
        return cls(device_id=device_id, sequence=sequence,
                   message_type=WileMessageType(type_value),
                   readings=readings, flags=flags, rx_window_ms=rx_window_ms,
                   fragment_index=fragment_index,
                   fragment_total=fragment_total, raw_body=raw_body)


#: Header + CRC + fragment-extras overhead per fragment.
_FRAGMENT_OVERHEAD = _HEADER.size + 2 + _CRC_BYTES


def fragment_message(device_id: int, sequence: int, body: bytes,
                     max_fragment_body: int | None = None) -> list[WileMessage]:
    """Split a body too large for one vendor IE into FRAGMENT messages.

    Each fragment shares the ``sequence`` number and carries
    (index, total) so the receiver can reassemble; per-fragment bodies
    default to the maximum that fits.
    """
    capacity = (VENDOR_IE_MAX_DATA - _FRAGMENT_OVERHEAD
                if max_fragment_body is None else max_fragment_body)
    if capacity <= 0:
        raise PayloadError("fragment capacity must be positive")
    chunks = [body[offset:offset + capacity]
              for offset in range(0, max(len(body), 1), capacity)]
    total = len(chunks)
    if total > 255:
        raise PayloadError(f"body needs {total} fragments; max is 255")
    return [
        WileMessage(device_id=device_id, sequence=sequence,
                    message_type=WileMessageType.FRAGMENT,
                    flags=WileFlags.FRAGMENT,
                    fragment_index=index, fragment_total=total,
                    raw_body=chunk)
        for index, chunk in enumerate(chunks)
    ]


@dataclass
class FragmentReassembler:
    """Collects FRAGMENT messages until a body completes."""

    _pending: dict[tuple[int, int], dict[int, bytes]] = field(default_factory=dict)

    def add(self, message: WileMessage) -> bytes | None:
        """Feed a fragment; returns the full body when complete."""
        if not message.flags & WileFlags.FRAGMENT:
            raise PayloadError("not a fragment")
        key = (message.device_id, message.sequence)
        parts = self._pending.setdefault(key, {})
        parts[message.fragment_index] = message.raw_body or b""
        if len(parts) == message.fragment_total:
            del self._pending[key]
            return b"".join(parts[index]
                            for index in range(message.fragment_total))
        return None
