"""IEEE 802 frame check sequence (CRC-32).

802.11 frames end in a 32-bit FCS computed with the standard IEEE CRC-32
polynomial (0x04C11DB7, reflected form 0xEDB88320). Every encoded frame
appends an FCS and every parsed frame checks one, so ``crc32`` is the
stdlib's C ``zlib.crc32``, which computes exactly this CRC; a Python
loop here was most of the time of frame-heavy sweeps (see
``docs/PERFORMANCE.md``). ``crc32_reference`` is the same CRC from first
principles — a reflected lookup table built once at import, one lookup
per byte — kept as the reference the ``fcs-vs-zlib`` oracle and the
tests check ``zlib.crc32`` against.
"""

from __future__ import annotations

from zlib import crc32

_POLY_REFLECTED = 0xEDB88320


def _build_table() -> tuple[int, ...]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ _POLY_REFLECTED
            else:
                crc >>= 1
        table.append(crc)
    return tuple(table)


_TABLE = _build_table()


def crc32_reference(data: bytes) -> int:
    """Compute the IEEE CRC-32 of ``data`` one table lookup per byte.

    Init all-ones, final XOR all-ones: the CRC ``zlib.crc32`` computes.
    """
    crc = 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


def append_fcs(frame_body: bytes) -> bytes:
    """Return ``frame_body`` with its 4-byte little-endian FCS appended."""
    return frame_body + crc32(frame_body).to_bytes(4, "little")


def check_fcs(frame: bytes) -> bool:
    """Validate the trailing FCS of an over-the-air frame.

    Returns False for frames shorter than the FCS itself rather than
    raising: a truncated capture is simply a bad frame.
    """
    if len(frame) < 4:
        return False
    body, trailer = frame[:-4], frame[-4:]
    return crc32(body).to_bytes(4, "little") == trailer


def strip_fcs(frame: bytes) -> bytes:
    """Remove a validated FCS; raises ``ValueError`` if the FCS is bad."""
    if not check_fcs(frame):
        raise ValueError("bad FCS")
    return frame[:-4]
