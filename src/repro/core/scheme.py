"""Incremental-encryption scheme interface and registry (SV-A).

An incremental encryption scheme is the 4-tuple ``(K, Enc, Dec, IncE)``.
In this library the pieces map as follows:

* **K** — :class:`repro.core.keys.KeyMaterial` (password + salt → key);
* **Enc** — ``EncryptedDocument.create`` (encrypt a whole document);
* **Dec** — ``EncryptedDocument.load`` / ``.text`` (decrypt, verifying
  integrity when the scheme provides it);
* **IncE** — ``EncryptedDocument.apply_delta`` (apply an edit operation
  to the ciphertext in sub-linear time, returning the ciphertext delta).

The per-block cryptography lives in *codecs* (:mod:`repro.core.recb`,
:mod:`repro.core.rpc`); this module defines their common shape and the
name → implementation registry used by document headers and factories.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

from repro.crypto.blockcipher import AesCipher
from repro.crypto.random import RandomSource, SystemRandomSource
from repro.encoding.wire import Record
from repro.errors import CiphertextFormatError


class BlockCodec(ABC):
    """Block-level cryptography for one scheme.

    A codec knows how to frame chunks of plaintext into wire
    :class:`Record` objects and back; it is stateless across documents —
    per-document state (``r0``, running checksums) is created by
    :meth:`fresh_state` and owned by the document object.
    """

    #: registry key, also written into document headers
    name: str
    #: does Dec detect tampering?
    supports_integrity: bool
    #: how many bookkeeping records precede the data records
    prefix_records: int
    #: how many bookkeeping records follow the data records
    suffix_records: int
    #: nonce width in bits (recorded in the document header)
    nonce_bits: int

    def __init__(self, key: bytes, rng: RandomSource | None = None):
        self._cipher = AesCipher(key)
        self._rng = rng if rng is not None else SystemRandomSource()

    def encrypt_blob(self, plain: bytes) -> bytes:
        """One cipher pass over prepared block images (whole blocks).

        The coalesced-update path concatenates every touched span's
        ``prepare_*`` output (plus the checksum image, for schemes that
        keep one) and encrypts it here in a single call.
        """
        return self._cipher.encrypt_many(plain)

    @abstractmethod
    def fresh_state(self) -> object:
        """Create per-document scheme state for a new document."""

    @abstractmethod
    def prefix(self, state: object, first_lead: bytes | None) -> list[Record]:
        """Bookkeeping records that precede the data records."""

    @abstractmethod
    def suffix(self, state: object) -> list[Record]:
        """Bookkeeping records that follow the data records."""


_REGISTRY: dict[str, Callable[..., object]] = {}


def register_scheme(name: str, factory: Callable[..., object]) -> None:
    """Register a document factory under a scheme name."""
    _REGISTRY[name] = factory


def scheme_factory(name: str) -> Callable[..., object]:
    """Look up the document class registered for ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise CiphertextFormatError(
            f"unknown scheme {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def known_schemes() -> list[str]:
    """Names of all registered schemes."""
    return sorted(_REGISTRY)
