"""AES-CCM (Counter with CBC-MAC) authenticated encryption, RFC 3610.

CCMP — the WPA2 data confidentiality protocol — is CCM with AES-128, a
13-byte nonce and an 8-byte MIC. The Wi-LE §6 security extension also
uses this module directly to encrypt sensor payloads before they are
placed in the vendor-specific information element.

Hot-path note: per-frame CCM used to rebuild the AES object (and its key
schedule) and XOR blocks byte-by-byte on every call. :class:`CcmContext`
holds the expanded cipher once per key, and the CBC-MAC/CTR inner loops
run on Python big integers, so protecting a frame costs a handful of
block encryptions and nothing else. The module-level
:func:`ccm_encrypt` / :func:`ccm_decrypt` keep their old signatures and
route through a bounded per-key context cache.
"""

from __future__ import annotations

from collections import OrderedDict

from .aes import Aes


class CcmError(ValueError):
    """Raised for malformed parameters or authentication failure."""


class AuthenticationError(CcmError):
    """The MIC did not verify — the message is forged or corrupted."""


def _format_b0(nonce: bytes, message_length: int, mic_length: int,
               has_aad: bool) -> bytes:
    length_field_size = 15 - len(nonce)
    flags = ((0x40 if has_aad else 0)
             | (((mic_length - 2) // 2) << 3)
             | (length_field_size - 1))
    return bytes([flags]) + nonce + message_length.to_bytes(length_field_size, "big")


def _encode_aad(aad: bytes) -> bytes:
    if len(aad) == 0:
        return b""
    if len(aad) < 0xFF00:
        encoded = len(aad).to_bytes(2, "big") + aad
    else:
        encoded = b"\xff\xfe" + len(aad).to_bytes(4, "big") + aad
    if len(encoded) % 16:
        encoded += bytes(16 - len(encoded) % 16)
    return encoded


def _check_params(key: bytes, nonce: bytes, mic_length: int) -> None:
    if len(key) not in (16, 24, 32):
        raise CcmError(f"bad key length {len(key)}")
    if not 7 <= len(nonce) <= 13:
        raise CcmError(f"CCM nonce must be 7..13 bytes, got {len(nonce)}")
    if mic_length not in (4, 6, 8, 10, 12, 14, 16):
        raise CcmError(f"bad MIC length {mic_length}")


class CcmContext:
    """Reusable CCM state for one key.

    Owns the expanded AES cipher, so a session encrypting many frames
    (CCMP, the Wi-LE §6 payload path) expands the key schedule once and
    then pays only the per-block work. Thread-compatible in the usual
    CPython sense: the context carries no per-message mutable state.
    """

    __slots__ = ("_cipher",)

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise CcmError(f"bad key length {len(key)}")
        self._cipher = Aes(key)

    @property
    def key(self) -> bytes:
        return self._cipher.key

    # -- CBC-MAC / CTR primitives -------------------------------------------

    def _cbc_mac(self, nonce: bytes, aad: bytes, message: bytes,
                 mic_length: int) -> bytes:
        encrypt = self._cipher.encrypt_block
        block = encrypt(_format_b0(nonce, len(message), mic_length, bool(aad)))
        stream = _encode_aad(aad) + message
        if len(stream) % 16:
            stream += bytes(16 - len(stream) % 16)
        acc = int.from_bytes(block, "big")
        for offset in range(0, len(stream), 16):
            chunk = int.from_bytes(stream[offset:offset + 16], "big")
            acc = int.from_bytes(
                encrypt((acc ^ chunk).to_bytes(16, "big")), "big")
        return acc.to_bytes(16, "big")[:mic_length]

    def _ctr_crypt(self, nonce: bytes, data: bytes, start_counter: int) -> bytes:
        if not data:
            return b""
        encrypt = self._cipher.encrypt_block
        length_field_size = 15 - len(nonce)
        prefix = bytes([length_field_size - 1]) + nonce
        blocks = (len(data) + 15) // 16
        keystream = b"".join(
            encrypt(prefix + counter.to_bytes(length_field_size, "big"))
            for counter in range(start_counter, start_counter + blocks))
        n = len(data)
        return (int.from_bytes(data, "big")
                ^ int.from_bytes(keystream[:n], "big")).to_bytes(n, "big")

    # -- authenticated encryption -------------------------------------------

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"",
                mic_length: int = 8) -> bytes:
        """Encrypt and authenticate; returns ciphertext || MIC."""
        _check_params(self.key, nonce, mic_length)
        mic = self._cbc_mac(nonce, aad, plaintext, mic_length)
        ciphertext = self._ctr_crypt(nonce, plaintext, start_counter=1)
        encrypted_mic = self._ctr_crypt(nonce, mic, start_counter=0)[:mic_length]
        return ciphertext + encrypted_mic

    def decrypt(self, nonce: bytes, ciphertext_and_mic: bytes,
                aad: bytes = b"", mic_length: int = 8) -> bytes:
        """Verify the MIC and decrypt; raises :class:`AuthenticationError`
        on any tampering."""
        _check_params(self.key, nonce, mic_length)
        if len(ciphertext_and_mic) < mic_length:
            raise AuthenticationError("message shorter than its MIC")
        ciphertext = ciphertext_and_mic[:-mic_length]
        received_mic = ciphertext_and_mic[-mic_length:]
        plaintext = self._ctr_crypt(nonce, ciphertext, start_counter=1)
        expected_encrypted = self._ctr_crypt(
            nonce, self._cbc_mac(nonce, aad, plaintext, mic_length),
            start_counter=0)[:mic_length]
        if expected_encrypted != received_mic:
            raise AuthenticationError("CCM MIC verification failed")
        return plaintext


#: Bound on the per-key context cache behind the module-level functions.
CCM_CONTEXT_CACHE_MAX = 64

_CONTEXT_CACHE: OrderedDict[bytes, CcmContext] = OrderedDict()


def ccm_context(key: bytes) -> CcmContext:
    """A cached :class:`CcmContext` for ``key`` (bounded LRU)."""
    key = bytes(key)
    context = _CONTEXT_CACHE.get(key)
    if context is not None:
        _CONTEXT_CACHE.move_to_end(key)
        return context
    context = CcmContext(key)
    _CONTEXT_CACHE[key] = context
    if len(_CONTEXT_CACHE) > CCM_CONTEXT_CACHE_MAX:
        _CONTEXT_CACHE.popitem(last=False)
    return context


def ccm_encrypt(key: bytes, nonce: bytes, plaintext: bytes,
                aad: bytes = b"", mic_length: int = 8) -> bytes:
    """Encrypt and authenticate; returns ciphertext || MIC."""
    _check_params(key, nonce, mic_length)
    return ccm_context(key).encrypt(nonce, plaintext, aad, mic_length)


def ccm_decrypt(key: bytes, nonce: bytes, ciphertext_and_mic: bytes,
                aad: bytes = b"", mic_length: int = 8) -> bytes:
    """Verify the MIC and decrypt; raises :class:`AuthenticationError` on
    any tampering."""
    _check_params(key, nonce, mic_length)
    return ccm_context(key).decrypt(nonce, ciphertext_and_mic, aad, mic_length)
