"""WPA2 security substrate: AES, AES-CCM, CCMP, 802.11i keys, 4-way handshake.

Everything here exists because the paper's baseline scenarios must pay
the real cost of WiFi security: the WiFi-DC client re-derives its PTK via
the 4-way handshake on every wake-up, and data frames (DHCP, ARP, sensor
payload) are CCMP-protected. Wi-LE's §6 security extension reuses the
same AES-CCM core to encrypt payloads before beacon injection.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".aes": ("Aes", "AesError"),
    ".ccm": (
        "AuthenticationError", "CcmContext", "CcmError", "ccm_context",
        "ccm_decrypt", "ccm_encrypt",
    ),
    ".ccmp": (
        "CCMP_HEADER_BYTES", "CCMP_MIC_BYTES", "CCMP_OVERHEAD_BYTES",
        "CcmpError", "CcmpHeader", "CcmpSession", "ReplayError",
    ),
    ".eapol": ("EAPOL_ETHERTYPE", "EapolError", "EapolKey"),
    ".handshake": (
        "Authenticator", "HandshakeError", "HandshakeResult", "HandshakeState",
        "Supplicant", "run_handshake",
    ),
    ".keys": (
        "NonceGenerator", "Ptk", "derive_pmk", "derive_ptk", "eapol_mic",
        "pmk_cache_clear", "pmk_from_passphrase", "prf",
    ),
})
