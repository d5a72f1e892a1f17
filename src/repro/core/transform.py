"""The ``enc_scheme`` object of Fig. 2.

The extension's request mediator holds one :class:`EncryptionEngine` per
open document.  It exposes exactly the three public interfaces the
paper names — ``encrypt``, ``decrypt``, and ``transform_delta`` — and
"maintains a copy of the state of the ciphertext document which is
needed to transform the delta" (the :class:`EncryptedDocument` mirror).

All three methods speak *strings*: full saves carry the wire document,
incremental saves carry serialized deltas, matching what actually rides
in the form fields the mediator rewrites.
"""

from __future__ import annotations

from typing import Callable

from repro.core.delta import Delta
from repro.core.document import (
    EncryptedDocument,
    create_document,
    load_document,
)
from repro.core.keys import KeyMaterial
from repro.crypto.random import RandomSource
from repro.datastructures import BlockIndex
from repro.errors import TransformError

__all__ = ["EncryptionEngine"]


class EncryptionEngine:
    """Per-document encryption state machine for the mediator."""

    def __init__(
        self,
        password: str,
        scheme: str = "recb",
        block_chars: int = 8,
        rng: RandomSource | None = None,
        index_factory: Callable[[], BlockIndex] | None = None,
    ):
        self._password = password
        self._scheme = scheme
        self._block_chars = block_chars
        self._rng = rng
        self._index_factory = index_factory
        self._keys: KeyMaterial | None = None
        self._mirror: EncryptedDocument | None = None

    @property
    def mirror(self) -> EncryptedDocument | None:
        """The ciphertext-document mirror (None before first use)."""
        return self._mirror

    @property
    def scheme(self) -> str:
        return self._scheme

    def encrypt(self, plaintext: str) -> str:
        """Encrypt a full document (the ``docContents`` path).

        Replaces the mirror; the key (and salt) is derived once per
        engine so re-saves of the same document stay openable with the
        same password.  The returned wire seeds the mirror's
        :meth:`~EncryptedDocument.stored_wire` cache, so the create's
        ack check hashes this very string.
        """
        if self._keys is None:
            self._keys = KeyMaterial.from_password(
                self._password, rng=self._rng
            )
        self._mirror = create_document(
            plaintext,
            key_material=self._keys,
            scheme=self._scheme,
            block_chars=self._block_chars,
            rng=self._rng,
            index_factory=self._index_factory,
        )
        return self._mirror.stored_wire()

    def decrypt(self, wire_text: str) -> str:
        """Decrypt a stored document (document-open path); adopts it as
        the mirror so subsequent deltas can be transformed."""
        self._mirror = load_document(
            wire_text,
            password=self._password,
            rng=self._rng,
            index_factory=self._index_factory,
        )
        self._keys = self._mirror.key_material
        self._scheme = self._mirror.scheme
        self._block_chars = self._mirror.block_chars
        return self._mirror.text

    def transform_delta(self, delta_text: str) -> str:
        """Translate a plaintext delta into the ciphertext delta."""
        if self._mirror is None:
            raise TransformError(
                "no ciphertext mirror: a full save or load must precede "
                "incremental updates"
            )
        delta = Delta.parse(delta_text)
        return self._mirror.apply_delta(delta).serialize()
