"""Deterministic recorded beacon streams and the paced replayer.

The soak bench, the ``repro.check`` chaos oracles and the CI job all
need the same thing: a realistic beacon stream that is
*bit-reproducible* from a seed, so two runs over it (clean vs
chaos-killed, this commit vs the baseline) are comparing identical
inputs. Streams are generated through the real
encoder stack (:class:`repro.core.payload.WileMessage` →
:func:`repro.core.codec.encode_beacon`), so every frame a stream
contains is a frame a simulated device could actually have sent —
including sequence gaps, duplicates, encrypted bodies, RX-window
extras and a controlled dose of corrupted frames for the error path.

The on-disk format is deliberately dumb: a one-line JSON header, then
``<u16 little-endian length><frame bytes>`` records. Dumb formats
survive; the CI smoke records a stream once and replays it in a
separate process.
"""

from __future__ import annotations

import asyncio
import json
import random
import struct
import time

from ..core.payload import (
    SensorKind,
    SensorReading,
    WileFlags,
    WileMessage,
)
from ..dot11.fcs import append_fcs
from .tenants import DEFAULT_TENANT_BITS

_MAGIC = "wile-beacon-stream"
_VERSION = 1
_LENGTH = struct.Struct("<H")

#: Frames :func:`replay` offers to the gateway per ``submit_many``.
REPLAY_CHUNK = 512


def generate_stream(payload_count: int, device_count: int = 64,
                    tenant_count: int = 4, seed: int = 0,
                    encrypted_fraction: float = 0.05,
                    duplicate_fraction: float = 0.01,
                    gap_fraction: float = 0.02,
                    corrupt_fraction: float = 0.0) -> list[bytes]:
    """Build ``payload_count`` wire frames, deterministically from
    ``seed``.

    Devices are spread round-robin over ``tenant_count`` tenants (ids
    built the :func:`repro.service.tenants.tenant_of` way). Per frame,
    with the given probabilities: repeat the device's last sequence
    (duplicate), skip 1–5 sequences (gap), send an encrypted body, or
    flip one payload byte after encoding (corrupt — exercises the
    decode-error path; the FCS is re-sealed so corruption reaches the
    message CRC, the layer a real gateway must catch itself).
    """
    # Here, not at import: ``import repro.service`` binds this module,
    # and the gateway never encodes a beacon.
    from ..core.codec import encode_beacon
    rng = random.Random(seed)
    device_ids = [((index % tenant_count) << DEFAULT_TENANT_BITS)
                  | (index // tenant_count + 1)
                  for index in range(device_count)]
    sequences = {device_id: rng.randrange(0x10000)
                 for device_id in device_ids}
    wires = []
    for _ in range(payload_count):
        device_id = device_ids[rng.randrange(device_count)]
        roll = rng.random()
        if roll < duplicate_fraction:
            pass  # resend the previous sequence number
        elif roll < duplicate_fraction + gap_fraction:
            sequences[device_id] = (sequences[device_id]
                                    + rng.randint(2, 6)) & 0xFFFF
        else:
            sequences[device_id] = (sequences[device_id] + 1) & 0xFFFF
        if rng.random() < encrypted_fraction:
            message = WileMessage(
                device_id=device_id, sequence=sequences[device_id],
                flags=WileFlags.ENCRYPTED,
                raw_body=rng.getrandbits(8 * 24).to_bytes(24, "little"))
        else:
            readings = (
                SensorReading(SensorKind.TEMPERATURE_C,
                              round(rng.uniform(-10.0, 40.0), 2)),
                SensorReading(SensorKind.BATTERY_MV,
                              float(rng.randint(2200, 3300))),
            )
            message = WileMessage(device_id=device_id,
                                  sequence=sequences[device_id],
                                  readings=readings)
        wire = encode_beacon(message, sequence=sequences[device_id] & 0xFFF
                             ).to_bytes(with_fcs=True)
        if corrupt_fraction and rng.random() < corrupt_fraction:
            wire = _corrupt(wire, rng)
        wires.append(wire)
    return wires


def _corrupt(wire: bytes, rng: random.Random) -> bytes:
    """Flip one bit inside the Wi-LE message blob and re-seal the FCS,
    so the damage presents as a message-CRC16 failure — the layer a
    gateway must catch itself, not a frame the NIC already dropped."""
    end = len(wire) - 4
    pos = 36  # mgmt header + fixed params; then the IE walk
    blob_range = None
    while pos + 2 <= end:
        length = wire[pos + 1]
        if wire[pos] == 221:  # vendor-specific: OUI(3)+type(1), then blob
            blob_range = (pos + 6, pos + 2 + length)
            break
        pos += 2 + length
    if blob_range is None or blob_range[0] >= blob_range[1]:
        return wire
    mangled = bytearray(wire[:-4])
    mangled[rng.randrange(*blob_range)] ^= 1 << rng.randrange(8)
    return append_fcs(bytes(mangled))


def record_stream(path: str, wires: list[bytes],
                  header_extra: dict | None = None) -> int:
    """Write a stream file; returns the frame count."""
    header = {"magic": _MAGIC, "version": _VERSION, "frames": len(wires)}
    if header_extra:
        header.update(header_extra)
    with open(path, "wb") as handle:
        handle.write(json.dumps(header).encode("utf-8") + b"\n")
        for wire in wires:
            handle.write(_LENGTH.pack(len(wire)))
            handle.write(wire)
    return len(wires)


def load_stream(path: str) -> list[bytes]:
    """Read a stream file back; raises ``ValueError`` naming ``path`` on
    a malformed header, a truncated record, or bytes past the last
    frame the header declares."""
    with open(path, "rb") as handle:
        try:
            header = json.loads(handle.readline())
        except ValueError as error:  # not JSON, or not UTF-8
            raise ValueError(f"{path}: not a beacon stream file") from error
        if not isinstance(header, dict):
            raise ValueError(f"{path}: not a beacon stream file")
        if header.get("magic") != _MAGIC or header.get("version") != _VERSION:
            raise ValueError(f"{path}: unknown stream format {header!r}")
        frames = header.get("frames")
        if type(frames) is not int or frames < 0:
            raise ValueError(f"{path}: bad frame count {frames!r}")
        wires = []
        for index in range(frames):
            prefix = handle.read(_LENGTH.size)
            if len(prefix) < _LENGTH.size:
                raise ValueError(f"{path}: truncated at frame {index}")
            (length,) = _LENGTH.unpack(prefix)
            wire = handle.read(length)
            if len(wire) < length:
                raise ValueError(f"{path}: truncated at frame {index}")
            wires.append(wire)
        if handle.read(1):
            raise ValueError(f"{path}: bytes after its {frames} frames")
    return wires


async def replay(service, wires: list[bytes],
                 rate_per_s: float | None = None) -> float:
    """Feed ``wires`` into a started :class:`GatewayService`.

    Unpaced (``rate_per_s=None``) it pushes chunks as fast as the
    queue accepts them — the soak-bench mode, where the queue policy
    decides what backpressure means. Paced, it tracks the target
    aggregate rate with a simple credit scheme (sleep until the next
    chunk is due), which is how the smoke mimics "production rate"
    without a packet generator. Returns the wall-clock seconds spent.
    """
    started = time.perf_counter()
    sent = 0
    for start in range(0, len(wires), REPLAY_CHUNK):
        chunk = wires[start:start + REPLAY_CHUNK]
        if rate_per_s is not None:
            due = started + sent / rate_per_s
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
        await service.submit_many(chunk)
        sent += len(chunk)
    return time.perf_counter() - started
