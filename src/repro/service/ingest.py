"""Wire-format beacon → Wi-LE payload extraction at production rates.

The receive path the rest of the repo uses
(:func:`repro.dot11.parser.parse_frame` →
:func:`repro.core.codec.decode_beacon` →
:class:`repro.core.payload.WileMessage`) builds full typed objects for
every element of every frame — ideal for tests and tooling, but ~60 µs
per beacon, which caps a single core below the gateway's 1M
payloads/minute target. This module is the same parse expressed as
byte-offset arithmetic over the raw frame:

* FCS via :func:`repro.dot11.fcs.check_fcs`, the same C-speed check
  the full parser makes;
* one information-element walk to find the Wi-LE vendor IE (OUI +
  vendor type), no element objects materialised;
* the message header in one ``struct.unpack_from``, the CRC-16 via
  :func:`repro.core.payload.crc16_ccitt` (stdlib ``binascii.crc_hqx``,
  the same function the encoder stamps it with), and the sensor TLVs
  decoded straight to ``(kind, value)`` pairs.

**Contract:** for every frame the full parser accepts as a Wi-LE
beacon, :func:`extract_payload` returns the same device id, sequence,
type, flags and numeric readings; for everything else it raises
:class:`IngestError` (it never returns a wrong answer). That
equivalence is differentially pinned in ``tests/test_service.py`` over
randomized messages, flag combinations and corruptions.

:func:`decode_wires` decodes one batch of raw frames into payloads in
stream order; :func:`decode_batch_task` is that batch as the unit the
gateway's process pool fans out over.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

from ..core.payload import WILE_VENDOR_TYPE, WILE_VERSION, crc16_ccitt
from ..dot11.fcs import check_fcs as fcs_valid
from ..dot11.mac import WILE_OUI
from ..experiments.runner import fault_point


class IngestError(ValueError):
    """Raised for frames that are not intact Wi-LE beacons."""


@dataclass(frozen=True, slots=True)
class BeaconPayload:
    """The decoded fields the aggregation layer consumes.

    ``readings`` holds numeric ``(kind, value)`` pairs; RAW (opaque
    bytes) readings are skipped — the service meters them via ``size``
    but has no numeric summary to fold them into. Encrypted and
    fragment payloads carry no readings (the service counts them
    without keys or reassembly state).
    """

    device_id: int
    sequence: int
    message_type: int
    size: int
    encrypted: bool
    fragment: bool
    readings: tuple[tuple[int, float], ...]


_MGMT_HEADER = 24
_FIXED_PARAMS = 12   # timestamp(8) + interval(2) + capabilities(2)
_FCS_BYTES = 4
_VENDOR_IE = 221
_OUI_TYPE = WILE_OUI + bytes([WILE_VENDOR_TYPE])

_MSG_HEADER = struct.Struct("<BIHBB")
_MSG_CRC_BYTES = 2

_FLAG_ENCRYPTED = 0x01
_FLAG_RX_WINDOW = 0x02
_FLAG_FRAGMENT = 0x04
_KNOWN_FLAGS = 0x07

# Sensor TLV decoders, by kind byte (mirrors payload._decode_value; the
# differential test pins the two against each other).
_INT16 = struct.Struct("<h")
_UINT16 = struct.Struct("<H")
_UINT32 = struct.Struct("<I")
_KIND_RAW = 0x7F
# Exact value sizes per numeric kind: what the encoder emits and what
# the full parser's struct.unpack requires. A CRC-valid TLV declaring
# any other length is malformed — decoding it anyway would read value
# bytes out of the CRC or the next TLV.
_KIND_SIZES = {1: 2, 2: 2, 3: 2, 4: 4, 5: 4}


def extract_payload(wire: bytes) -> BeaconPayload:
    """Parse one over-the-air frame into a :class:`BeaconPayload`.

    Raises :class:`IngestError` unless ``wire`` is an intact (FCS-valid)
    802.11 beacon carrying an intact (CRC-valid) Wi-LE vendor IE.
    """
    n = len(wire)
    if n < _MGMT_HEADER + _FIXED_PARAMS + _FCS_BYTES:
        raise IngestError("frame too short for a beacon")
    # Frame control: version 0, management type, beacon subtype, no
    # DS/order flags — exactly what an injected (or real) beacon sends.
    if wire[0] != 0x80 or wire[1] != 0x00:
        raise IngestError("not a plain beacon frame")
    if not fcs_valid(wire):
        raise IngestError("FCS mismatch")
    # Walk the information elements for the Wi-LE vendor IE.
    pos = _MGMT_HEADER + _FIXED_PARAMS
    end = n - _FCS_BYTES
    blob = None
    while pos + 2 <= end:
        length = wire[pos + 1]
        value_end = pos + 2 + length
        if value_end > end:
            raise IngestError("truncated information element")
        if wire[pos] == _VENDOR_IE and length >= 4 \
                and wire[pos + 2:pos + 6] == _OUI_TYPE:
            blob = wire[pos + 6:value_end]
            break
        pos = value_end
    if blob is None:
        raise IngestError("no Wi-LE vendor IE")
    try:
        return decode_message_blob(blob)
    except struct.error as error:
        # Defence in depth: the explicit length checks should make this
        # unreachable, but a short read must reject, never escape raw.
        raise IngestError(f"malformed message structure: {error}") from None


def decode_message_blob(blob: bytes) -> BeaconPayload:
    """Decode one vendor-IE data field (the Wi-LE application message)."""
    size = len(blob)
    body_end = size - _MSG_CRC_BYTES
    if size < _MSG_HEADER.size + _MSG_CRC_BYTES:
        raise IngestError("message too short")
    if crc16_ccitt(blob[:body_end]) != (blob[body_end]
                                        | (blob[body_end + 1] << 8)):
        raise IngestError("message CRC16 mismatch")
    version, device_id, sequence, message_type, flags = \
        _MSG_HEADER.unpack_from(blob)
    if version != WILE_VERSION:
        raise IngestError(f"unsupported Wi-LE version {version}")
    if flags & ~_KNOWN_FLAGS:
        raise IngestError(f"unknown flag bits {flags:#04x}")
    pos = _MSG_HEADER.size
    if flags & _FLAG_RX_WINDOW:
        pos += 2
    fragment = bool(flags & _FLAG_FRAGMENT)
    if fragment:
        pos += 2
    if pos > body_end:
        raise IngestError("message extras overrun the body")
    encrypted = bool(flags & _FLAG_ENCRYPTED)
    readings: tuple[tuple[int, float], ...] = ()
    if not (encrypted or fragment):
        readings = _decode_readings(blob, pos, body_end)
    return BeaconPayload(device_id=device_id, sequence=sequence,
                         message_type=message_type, size=size,
                         encrypted=encrypted, fragment=fragment,
                         readings=readings)


def _decode_readings(blob: bytes, pos: int,
                     end: int) -> tuple[tuple[int, float], ...]:
    readings = []
    while pos < end:
        if pos + 2 > end:
            raise IngestError("truncated reading TLV header")
        kind = blob[pos]
        length = blob[pos + 1]
        value_end = pos + 2 + length
        if value_end > end:
            raise IngestError("truncated reading TLV value")
        if kind == _KIND_RAW:
            pos = value_end
            continue          # opaque bytes: metered by size only
        expected = _KIND_SIZES.get(kind)
        if expected is None:
            raise IngestError(f"unknown sensor kind {kind}")
        if length != expected:
            raise IngestError(f"sensor kind {kind} TLV declares {length}B, "
                              f"expected {expected}B")
        if kind == 1:        # TEMPERATURE_C: int16 centi-degrees
            value = _INT16.unpack_from(blob, pos + 2)[0] / 100.0
        elif kind == 2:      # HUMIDITY_PCT: uint16 centi-percent
            value = _UINT16.unpack_from(blob, pos + 2)[0] / 100.0
        elif kind == 3:      # BATTERY_MV
            value = float(_UINT16.unpack_from(blob, pos + 2)[0])
        else:                # PRESSURE_PA / COUNTER: uint32
            value = float(_UINT32.unpack_from(blob, pos + 2)[0])
        readings.append((kind, value))
        pos = value_end
    return tuple(readings)


def peek_device_id(wire: bytes) -> int | None:
    """The Wi-LE device id of a frame, or ``None`` if it cannot be read.

    A *routing* parse, not a validating one: no FCS, no message CRC —
    just enough structure-walking to find the vendor IE and unpack the
    header. The federation layer partitions streams with it, so it must
    be a pure function of the bytes (same frame, same answer, every
    process) but must never reject: a frame too mangled to route still
    has to land on *some* deterministic partition to have its decode
    error counted exactly once.
    """
    n = len(wire)
    if n < _MGMT_HEADER + _FIXED_PARAMS + _FCS_BYTES or wire[0] != 0x80:
        return None
    pos = _MGMT_HEADER + _FIXED_PARAMS
    end = n - _FCS_BYTES
    while pos + 2 <= end:
        length = wire[pos + 1]
        value_end = pos + 2 + length
        if value_end > end:
            return None
        if wire[pos] == _VENDOR_IE and length >= 4 \
                and wire[pos + 2:pos + 6] == _OUI_TYPE:
            blob = wire[pos + 6:value_end]
            if len(blob) < _MSG_HEADER.size:
                return None
            return _MSG_HEADER.unpack_from(blob)[1]
        pos = value_end
    return None


def decode_wires(wires: Sequence[bytes]) -> tuple[list[BeaconPayload], int]:
    """Decode one batch of raw frames into payloads, preserving order.

    Returns ``(payloads, errors)``: the decodable frames' payloads in
    stream order, plus the count of undecodable frames (dropped, never
    fatal — one mangled capture must not take the service down).
    Tenancy is resolved where payloads are observed, not here.
    """
    payloads: list[BeaconPayload] = []
    errors = 0
    for wire in wires:
        try:
            payloads.append(extract_payload(wire))
        except (IngestError, struct.error):
            errors += 1
    return payloads, errors


def decode_batch_task(task: tuple) -> tuple[list[BeaconPayload], int]:
    """Worker-side unit of fan-out (module-level so it pickles).

    ``task`` is ``(batch_id, wires)``; the result is
    :func:`decode_wires`'s. The ``"service.batch"`` fault point (keyed
    by batch id) is where the chaos smoke kills a worker to prove that
    a killed worker loses no aggregates.
    """
    batch_id, wires = task
    fault_point("service.batch", batch_id)
    return decode_wires(wires)
