"""Random sources for nonce generation.

The schemes draw their per-block nonces from a :class:`RandomSource`.
Two implementations are provided:

* :class:`SystemRandomSource` — wraps ``os.urandom``; what a deployment
  uses ("we assume ... a good source of cryptographic random numbers",
  SVI-A).
* :class:`DeterministicRandomSource` — an AES-CTR DRBG built on
  :class:`~repro.crypto.blockcipher.AesCipher` (OpenSSL AES).  Seeded
  runs make every experiment, test, and attack scenario exactly
  reproducible, which the benchmarks and the security harness rely on.
"""

from __future__ import annotations

import os
from typing import Protocol, runtime_checkable

from repro.crypto.blockcipher import BLOCK_SIZE, AesCipher


@runtime_checkable
class RandomSource(Protocol):
    """Supplier of cryptographic-quality random bytes."""

    def token(self, nbytes: int) -> bytes:  # pragma: no cover
        """Return ``nbytes`` fresh random bytes."""
        ...


class SystemRandomSource:
    """OS-backed randomness (``os.urandom``)."""

    def token(self, nbytes: int) -> bytes:
        """Return ``nbytes`` from the operating system's CSPRNG."""
        return os.urandom(nbytes)


class DeterministicRandomSource:
    """AES-CTR deterministic random bit generator.

    The generator key is derived from the seed by encrypting one fixed
    block under an all-seed key; output is the AES-CTR keystream.  This
    is a test/benchmark facility — it is deterministic *by design* and
    must never back a real deployment's nonces.
    """

    def __init__(self, seed: int | bytes = 0):
        if isinstance(seed, int):
            seed = seed.to_bytes(16, "big", signed=False) if seed >= 0 else (
                (-seed).to_bytes(16, "big")
            )
        seed = (seed * (BLOCK_SIZE // len(seed) + 1))[:BLOCK_SIZE] if seed else bytes(BLOCK_SIZE)
        key = AesCipher(seed).encrypt_block(bytes(BLOCK_SIZE))
        self._cipher = AesCipher(key)
        self._counter = 0
        self._buffer = b""

    def token(self, nbytes: int) -> bytes:
        """Return the next ``nbytes`` of the AES-CTR keystream."""
        missing = nbytes - len(self._buffer)
        if missing > 0:
            nblocks = (missing + BLOCK_SIZE - 1) // BLOCK_SIZE
            counters = b"".join(
                (self._counter + i).to_bytes(BLOCK_SIZE, "big")
                for i in range(nblocks)
            )
            self._counter += nblocks
            self._buffer += self._cipher.encrypt_many(counters)
        out, self._buffer = self._buffer[:nbytes], self._buffer[nbytes:]
        return out

    def fork(self, label: bytes) -> "DeterministicRandomSource":
        """Derive an independent child stream (stable under reordering).

        Experiments that need several independent deterministic streams
        (one per simulated client, say) fork children by label so adding
        a consumer never perturbs another consumer's draws.
        """
        material = label.ljust(BLOCK_SIZE, b"\x00")[:BLOCK_SIZE]
        child_seed = self._cipher.encrypt_block(material)
        return DeterministicRandomSource(child_seed)
