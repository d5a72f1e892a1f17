"""Block-cipher abstraction used by the incremental encryption schemes.

The schemes in :mod:`repro.core` only require a width-16 pseudorandom
permutation.  They accept anything satisfying :class:`BlockCipher`, which
lets the tests substitute a recorded/fake permutation and lets future
work drop in a different primitive (the paper notes "with a block cipher
of a different width, other block sizes might be desirable").

:class:`AesCipher` is the one AES that runs: AES-ECB from the installed
OpenSSL, as the 2011 prototype used an off-the-shelf library rather than
its own cipher.  It is reached through the ``libcrypto`` that the
interpreter's own :mod:`hashlib` (``_hashlib``) already has loaded, so
the cipher adds no dependency and no second copy of OpenSSL to the
process (the ``cryptography`` package's binding measured +7.4 MB
resident).  The pure-Python :mod:`repro.crypto.aes` stays as its
known-answer and differential oracle.
"""

from __future__ import annotations

import ctypes
import weakref
from typing import Protocol, runtime_checkable

import _hashlib

from repro.crypto.aes import BLOCK_SIZE
from repro.errors import BlockSizeError, CryptoError, KeySizeError
from repro.obs import counter

__all__ = ["BlockCipher", "AesCipher", "BLOCK_SIZE"]

#: block-cipher invocations, one per 16-byte block in either direction
#: (the sub-linearity tests' primary observable)
_AES_CALLS = counter("crypto.aes.calls")
_AES_ENCRYPTS = counter("crypto.aes.encrypt_calls")
_AES_DECRYPTS = counter("crypto.aes.decrypt_calls")
_KEY_SCHEDULES = counter("crypto.aes.key_schedules")

#: ``PyDLL`` holds the GIL across each call, so no two threads are ever
#: inside one (non-thread-safe) OpenSSL context at once.  Symbols resolve
#: through ``_hashlib`` to the libcrypto it links.
_LIBCRYPTO = ctypes.PyDLL(_hashlib.__file__)


def _bind(name: str, restype, *argtypes):
    fn = getattr(_LIBCRYPTO, name)
    fn.restype = restype
    fn.argtypes = argtypes
    return fn


_P, _INT = ctypes.c_void_p, ctypes.c_int
_CTX_NEW = _bind("EVP_CIPHER_CTX_new", _P)
_CTX_FREE = _bind("EVP_CIPHER_CTX_free", None, _P)
_CIPHER_INIT = _bind("EVP_CipherInit_ex", _INT,
                     _P, _P, _P, ctypes.c_char_p, ctypes.c_char_p, _INT)
_SET_PADDING = _bind("EVP_CIPHER_CTX_set_padding", _INT, _P, _INT)
_CIPHER_UPDATE = _bind("EVP_CipherUpdate", _INT, _P, ctypes.c_char_p,
                       ctypes.POINTER(_INT), ctypes.c_char_p, _INT)
#: key length in bytes -> OpenSSL's AES-ECB cipher description
_AES_ECB = {n: _bind(f"EVP_aes_{8 * n}_ecb", _P)() for n in (16, 24, 32)}


class _EcbContext:
    """One OpenSSL cipher context: AES-ECB, one key, one direction, no
    padding.  ECB carries no state from one block to the next, so one
    context serves every call."""

    def __init__(self, key: bytes, encrypt: bool):
        ctx = _CTX_NEW()
        if not ctx:
            raise CryptoError("EVP_CIPHER_CTX_new failed")
        weakref.finalize(self, _CTX_FREE, ctx)
        if (_CIPHER_INIT(ctx, _AES_ECB[len(key)], None, key, None,
                         int(encrypt)) != 1
                or _SET_PADDING(ctx, 0) != 1):
            raise CryptoError("OpenSSL AES-ECB initialisation failed")
        self._ctx = ctx

    def __call__(self, data: bytes) -> bytes:
        """Whole blocks in, the same number of blocks out."""
        # OpenSSL may write up to one block more than it is given
        out = ctypes.create_string_buffer(len(data) + BLOCK_SIZE)
        written = _INT()
        if (_CIPHER_UPDATE(self._ctx, out, ctypes.byref(written),
                           data, len(data)) != 1
                or written.value != len(data)):
            raise CryptoError("OpenSSL AES-ECB update failed")
        return out.raw[: len(data)]


@runtime_checkable
class BlockCipher(Protocol):
    """A 128-bit block cipher: one block in, one block out."""

    block_size: int

    def encrypt_block(self, block: bytes) -> bytes:  # pragma: no cover
        """Encrypt one 16-byte block."""
        ...

    def decrypt_block(self, block: bytes) -> bytes:  # pragma: no cover
        """Decrypt one 16-byte block."""
        ...

    def encrypt_many(self, data: bytes) -> bytes:  # pragma: no cover
        """ECB-encrypt a concatenation of whole blocks."""
        ...

    def decrypt_many(self, data: bytes) -> bytes:  # pragma: no cover
        """ECB-decrypt a concatenation of whole blocks."""
        ...


def _check_block(block: bytes) -> None:
    if len(block) != BLOCK_SIZE:
        raise BlockSizeError(f"AES block must be 16 bytes, got {len(block)}")


def _count_blocks(data: bytes) -> int:
    if len(data) % BLOCK_SIZE:
        raise BlockSizeError(
            f"ECB input must be a multiple of 16 bytes, got {len(data)}"
        )
    return len(data) // BLOCK_SIZE


class AesCipher:
    """The default :class:`BlockCipher`: OpenSSL AES in ECB mode."""

    block_size = BLOCK_SIZE

    def __init__(self, key: bytes):
        if len(key) not in _AES_ECB:
            raise KeySizeError(
                f"AES key must be 16, 24 or 32 bytes, got {len(key)}"
            )
        self._encrypt = _EcbContext(key, encrypt=True)
        self._decrypt = _EcbContext(key, encrypt=False)
        self.key_size = len(key)
        _KEY_SCHEDULES.inc()

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        _check_block(block)
        _AES_CALLS.inc()
        _AES_ENCRYPTS.inc()
        return self._encrypt(block)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        _check_block(block)
        _AES_CALLS.inc()
        _AES_DECRYPTS.inc()
        return self._decrypt(block)

    def encrypt_many(self, data: bytes) -> bytes:
        """ECB-encrypt a concatenation of whole blocks."""
        nblocks = _count_blocks(data)
        _AES_CALLS.inc(nblocks)
        _AES_ENCRYPTS.inc(nblocks)
        return self._encrypt(data)

    def decrypt_many(self, data: bytes) -> bytes:
        """ECB-decrypt a concatenation of whole blocks."""
        nblocks = _count_blocks(data)
        _AES_CALLS.inc(nblocks)
        _AES_DECRYPTS.inc(nblocks)
        return self._decrypt(data)
