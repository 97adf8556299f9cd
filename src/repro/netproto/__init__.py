"""Network-layer substrate: LLC/SNAP, IPv4, UDP, ARP, DHCP.

These are the "7 higher-layer frames" of the paper's §3.1 — the DHCP
exchange (DISCOVER/OFFER/REQUEST/ACK), the gratuitous ARP announcement,
and the ARP request/reply that resolves the gateway — all of which a
conventional WiFi client must complete after associating and before it
can transmit a single byte of sensor data. Wi-LE skips every one of them.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".arp": ("ArpError", "ArpOperation", "ArpPacket"),
    ".checksum": ("internet_checksum", "verify_checksum"),
    ".dhcp": (
        "DHCP_CLIENT_PORT", "DHCP_SERVER_PORT", "DhcpClient",
        "DhcpClientState", "DhcpError", "DhcpMessage", "DhcpMessageType",
        "DhcpOption", "DhcpServer", "Lease",
    ),
    ".ip": ("PROTO_UDP", "IpError", "Ipv4Address", "Ipv4Packet"),
    ".llc": (
        "ETHERTYPE_ARP", "ETHERTYPE_EAPOL", "ETHERTYPE_IPV4", "LlcError",
        "llc_decapsulate", "llc_encapsulate",
    ),
    ".udp": ("UdpDatagram", "UdpError"),
})
