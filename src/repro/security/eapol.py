"""EAPOL-Key frames (IEEE 802.1X-2010 / 802.11-2016 12.7.2).

The WPA2 4-way handshake exchanges four of these frames inside 802.11
data frames. The paper (§3.1) counts them among the 20 MAC-layer frames
a WiFi client must exchange before it can send a byte of sensor data —
exactly the overhead Wi-LE removes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

from .keys import eapol_mic

#: 802.1X packet types.
EAPOL_VERSION = 2
EAPOL_TYPE_KEY = 3

#: Key descriptor type for RSN (WPA2).
DESCRIPTOR_RSN = 2

#: Key information bit masks.
KEYINFO_DESC_VERSION_MASK = 0x0007
KEYINFO_KEY_TYPE_PAIRWISE = 0x0008
KEYINFO_INSTALL = 0x0040
KEYINFO_ACK = 0x0080
KEYINFO_MIC = 0x0100
KEYINFO_SECURE = 0x0200
KEYINFO_ERROR = 0x0400
KEYINFO_REQUEST = 0x0800
KEYINFO_ENCRYPTED_KEY_DATA = 0x1000

#: Descriptor version 2 = HMAC-SHA1 MIC + AES key wrap (WPA2/CCMP).
DESC_VERSION_AES = 2

#: LLC/SNAP + EtherType for EAPOL when carried in 802.11 data frames.
EAPOL_ETHERTYPE = 0x888E


class EapolError(ValueError):
    """Raised when an EAPOL-Key frame cannot be encoded or decoded."""


@dataclass(frozen=True, slots=True)
class EapolKey:
    """An EAPOL-Key frame (RSN descriptor).

    The four handshake messages differ only in their flag combinations
    and payloads; :mod:`repro.security.handshake` constructs them.
    """

    key_info: int
    replay_counter: int
    nonce: bytes = bytes(32)
    key_length: int = 16
    key_iv: bytes = bytes(16)
    key_rsc: int = 0
    mic: bytes = bytes(16)
    key_data: bytes = b""

    def __post_init__(self) -> None:
        if len(self.nonce) != 32:
            raise EapolError("nonce must be 32 bytes")
        if len(self.key_iv) != 16:
            raise EapolError("key IV must be 16 bytes")
        if len(self.mic) != 16:
            raise EapolError("MIC must be 16 bytes")
        if self.replay_counter < 0:
            raise EapolError("negative replay counter")

    # -- flag accessors -----------------------------------------------------

    @property
    def is_pairwise(self) -> bool:
        return bool(self.key_info & KEYINFO_KEY_TYPE_PAIRWISE)

    @property
    def has_ack(self) -> bool:
        return bool(self.key_info & KEYINFO_ACK)

    @property
    def has_mic(self) -> bool:
        return bool(self.key_info & KEYINFO_MIC)

    @property
    def is_secure(self) -> bool:
        return bool(self.key_info & KEYINFO_SECURE)

    @property
    def install(self) -> bool:
        return bool(self.key_info & KEYINFO_INSTALL)

    @property
    def has_encrypted_key_data(self) -> bool:
        return bool(self.key_info & KEYINFO_ENCRYPTED_KEY_DATA)

    # -- wire format ----------------------------------------------------------

    def to_bytes(self) -> bytes:
        body = (bytes([DESCRIPTOR_RSN])
                + struct.pack(">H", self.key_info)
                + struct.pack(">H", self.key_length)
                + struct.pack(">Q", self.replay_counter)
                + self.nonce
                + self.key_iv
                + struct.pack(">Q", self.key_rsc)
                + bytes(8)  # Key ID (reserved in RSN)
                + self.mic
                + struct.pack(">H", len(self.key_data))
                + self.key_data)
        header = struct.pack(">BBH", EAPOL_VERSION, EAPOL_TYPE_KEY, len(body))
        return header + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "EapolKey":
        if len(data) < 4:
            raise EapolError("EAPOL frame too short")
        version, packet_type, length = struct.unpack(">BBH", data[:4])
        if packet_type != EAPOL_TYPE_KEY:
            raise EapolError(f"not an EAPOL-Key frame (type {packet_type})")
        body = data[4:4 + length]
        if len(body) < 95:
            raise EapolError(f"EAPOL-Key body too short: {len(body)}")
        descriptor = body[0]
        if descriptor != DESCRIPTOR_RSN:
            raise EapolError(f"unsupported descriptor type {descriptor}")
        key_info = struct.unpack(">H", body[1:3])[0]
        key_length = struct.unpack(">H", body[3:5])[0]
        replay = struct.unpack(">Q", body[5:13])[0]
        nonce = body[13:45]
        key_iv = body[45:61]
        key_rsc = struct.unpack(">Q", body[61:69])[0]
        mic = body[77:93]
        data_length = struct.unpack(">H", body[93:95])[0]
        key_data = body[95:95 + data_length]
        if len(key_data) != data_length:
            raise EapolError("truncated key data")
        return cls(key_info=key_info, replay_counter=replay, nonce=nonce,
                   key_length=key_length, key_iv=key_iv, key_rsc=key_rsc,
                   mic=mic, key_data=key_data)

    # -- MIC handling ----------------------------------------------------------

    def with_mic(self, kck: bytes) -> "EapolKey":
        """Return a copy whose MIC field is computed over the zero-MIC frame."""
        zeroed = replace(self, mic=bytes(16))
        return replace(self, mic=eapol_mic(kck, zeroed.to_bytes()))

    def verify_mic(self, kck: bytes) -> bool:
        """Check the MIC against ``kck``; frames without a MIC flag pass."""
        if not self.has_mic:
            return True
        zeroed = replace(self, mic=bytes(16))
        return eapol_mic(kck, zeroed.to_bytes()) == self.mic
