"""Cryptographic substrate: OpenSSL AES, its pure-Python oracle, random sources.

The incremental encryption schemes (:mod:`repro.core`) sit on top of
this package.  A known-answer self-test runs once at import time so a
mis-built cipher fails loudly rather than silently producing garbage
ciphertext.
"""

from repro.crypto.aes import AES, BLOCK_SIZE
from repro.crypto.blockcipher import AesCipher, BlockCipher
from repro.crypto.random import (
    DeterministicRandomSource,
    RandomSource,
    SystemRandomSource,
)
from repro.crypto.selftest import run_selftest

run_selftest()

__all__ = [
    "AES",
    "BLOCK_SIZE",
    "AesCipher",
    "BlockCipher",
    "RandomSource",
    "SystemRandomSource",
    "DeterministicRandomSource",
    "run_selftest",
]
