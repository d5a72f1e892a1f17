"""Known-answer self-tests for the cipher and its oracle.

Run automatically on first import of :mod:`repro.crypto` (cheap — a
handful of blocks) so no scheme can silently run on a cipher that does
not compute AES: the FIPS-197 vectors must come out of both the OpenSSL
:class:`~repro.crypto.blockcipher.AesCipher` and the pure-Python
:class:`~repro.crypto.aes.AES` it is checked against.  The same vectors
are exercised, much more broadly, in the unit tests.
"""

from __future__ import annotations

import binascii

from repro.crypto.aes import AES, INV_SBOX, SBOX
from repro.crypto.blockcipher import AesCipher
from repro.errors import CryptoError

_h = binascii.unhexlify

#: FIPS-197 Appendix C known-answer vectors (key hex, ciphertext hex) for
#: plaintext 00112233445566778899aabbccddeeff.
FIPS_197_VECTORS = [
    ("000102030405060708090a0b0c0d0e0f",
     "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617",
     "dda97ca4864cdfe06eaf70a0ec0d7191"),
    ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "8ea2b7ca516745bfeafc49904b496089"),
]

_FIPS_PLAINTEXT = _h("00112233445566778899aabbccddeeff")


def run_selftest() -> None:
    """Raise :class:`CryptoError` if the cipher core is mis-built."""
    # Spot-check the derived S-box against FIPS-197 Figure 7.
    if SBOX[0x00] != 0x63 or SBOX[0x53] != 0xED or SBOX[0xFF] != 0x16:
        raise CryptoError("derived S-box does not match FIPS-197")
    if any(INV_SBOX[SBOX[i]] != i for i in range(256)):
        raise CryptoError("inverse S-box is not the inverse of the S-box")

    for key_hex, ct_hex in FIPS_197_VECTORS:
        for cipher in (AesCipher(_h(key_hex)), AES(_h(key_hex))):
            name = f"{type(cipher).__name__}-{len(key_hex) * 4}"
            ct = cipher.encrypt_block(_FIPS_PLAINTEXT)
            if ct != _h(ct_hex):
                raise CryptoError(f"{name} known-answer failure")
            if cipher.decrypt_block(ct) != _FIPS_PLAINTEXT:
                raise CryptoError(f"{name} decrypt failure")
