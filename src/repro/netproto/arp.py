"""ARP (RFC 826) for IPv4-over-802.11.

Before the paper's WiFi client can unicast its sensor datagram to the AP
it must resolve the gateway's MAC address — one ARP request and one reply,
two of the "7 higher-layer frames" of §3.1.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from ..dot11.mac import MacAddress
from .ip import Ipv4Address

HTYPE_ETHERNET = 1
PTYPE_IPV4 = 0x0800


class ArpOperation(enum.IntEnum):
    REQUEST = 1
    REPLY = 2


class ArpError(ValueError):
    """Raised for malformed ARP packets."""


@dataclass(frozen=True, slots=True)
class ArpPacket:
    operation: ArpOperation
    sender_mac: MacAddress
    sender_ip: Ipv4Address
    target_mac: MacAddress
    target_ip: Ipv4Address

    def to_bytes(self) -> bytes:
        return (struct.pack(">HHBBH", HTYPE_ETHERNET, PTYPE_IPV4, 6, 4,
                            int(self.operation))
                + bytes(self.sender_mac) + bytes(self.sender_ip)
                + bytes(self.target_mac) + bytes(self.target_ip))

    @classmethod
    def from_bytes(cls, data: bytes) -> "ArpPacket":
        if len(data) < 28:
            raise ArpError(f"ARP packet too short: {len(data)}")
        htype, ptype, hlen, plen, operation = struct.unpack(">HHBBH", data[:8])
        if htype != HTYPE_ETHERNET or ptype != PTYPE_IPV4:
            raise ArpError(f"unsupported ARP types {htype}/{ptype:#x}")
        if hlen != 6 or plen != 4:
            raise ArpError(f"unsupported ARP lengths {hlen}/{plen}")
        return cls(
            operation=ArpOperation(operation),
            sender_mac=MacAddress(data[8:14]),
            sender_ip=Ipv4Address.from_bytes(data[14:18]),
            target_mac=MacAddress(data[18:24]),
            target_ip=Ipv4Address.from_bytes(data[24:28]),
        )

    @classmethod
    def request(cls, sender_mac: MacAddress, sender_ip: Ipv4Address,
                target_ip: Ipv4Address) -> "ArpPacket":
        """Who-has ``target_ip``? Broadcast with a zero target MAC."""
        return cls(ArpOperation.REQUEST, sender_mac, sender_ip,
                   MacAddress.zero(), target_ip)

    def reply_from(self, responder_mac: MacAddress) -> "ArpPacket":
        """Build the reply a host owning ``target_ip`` sends back."""
        if self.operation is not ArpOperation.REQUEST:
            raise ArpError("can only reply to a request")
        return ArpPacket(ArpOperation.REPLY, responder_mac, self.target_ip,
                         self.sender_mac, self.sender_ip)
