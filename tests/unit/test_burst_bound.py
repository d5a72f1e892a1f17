"""Regression bound: one coalesced burst costs one bulk cipher call.

This is the whole point of the coalescing layer — a burst of N
keystrokes used to cost N scalar IncE passes, and must now cost exactly
ONE ``encrypt_many`` invocation covering every touched block (plus
nothing else).  These tests pin that with counter arithmetic: the AES
invocation counters may not move by more than the bound, ever, or the
client scaling curve silently collapses back to flat.

The document is built over a cipher-free stub RNG so nonce-buffer
refills (which legitimately call the cipher too) cannot blur the
accounting.
"""

import pytest

from repro.client.coalesce import EditCoalescer
from repro.core.delta import Delta
from repro.core.document import create_document
from repro.core.keys import KeyMaterial
from repro.obs import value_of

KEYS = KeyMaterial.from_password("burst-bound", salt=b"burstsalt1")


class _CountingRng:
    """Deterministic byte source that never touches a cipher."""

    def __init__(self):
        self._n = 0

    def token(self, nbytes: int) -> bytes:
        out = bytes((self._n + i) & 0xFF for i in range(nbytes))
        self._n += nbytes
        return out


def _aes_snap() -> dict[str, int]:
    return {name: value_of(f"crypto.aes.{name}")
            for name in ("calls", "encrypt_calls")}


def _count_bulk_calls(doc) -> list[int]:
    """Record the block count of every ``encrypt_many`` on ``doc``'s
    cipher from now on."""
    cipher = doc._codec._cipher
    inner = cipher.encrypt_many
    sizes: list[int] = []

    def encrypt_many(data: bytes) -> bytes:
        sizes.append(len(data) // 16)
        return inner(data)

    cipher.encrypt_many = encrypt_many
    return sizes


def _scattered_burst(doc_len: int, edits: int) -> Delta:
    """``edits`` single-char replacements spread over the document,
    composed into one burst — many clusters, many touched blocks."""
    journal = EditCoalescer()
    step = doc_len // (edits + 1)
    for k in range(edits):
        journal.add(Delta.replacement(k * step, 1, "Q"))
    burst = journal.flush("drain")
    assert burst is not None
    return burst


@pytest.mark.parametrize("scheme,suffix_blocks", [("recb", 0), ("rpc", 1)])
def test_one_batch_invocation_per_burst(scheme, suffix_blocks):
    doc = create_document("abcdefgh" * 500, key_material=KEYS,
                          scheme=scheme, rng=_CountingRng())
    burst = _scattered_burst(doc.char_length, 30)

    bulk_calls = _count_bulk_calls(doc)
    before = _aes_snap()
    blocks_before = value_of("doc.blocks_reencrypted")
    clusters_before = value_of("doc.clusters")
    doc.apply_delta(burst)
    after = _aes_snap()

    blocks = value_of("doc.blocks_reencrypted") - blocks_before
    assert value_of("doc.clusters") - clusters_before >= 2
    assert blocks >= 30  # a scattered burst touches many blocks

    # THE bound: the whole burst was one encrypt_many invocation over
    # every re-encrypted block (+ the scheme's checksum suffix).
    assert bulk_calls == [blocks + suffix_blocks]
    assert after["calls"] - before["calls"] == blocks + suffix_blocks
    assert after["encrypt_calls"] - before["encrypt_calls"] == (
        blocks + suffix_blocks)


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
def test_small_burst_is_single_pass(scheme):
    """A two-edit burst is one bulk call too — still exactly one AES
    block per re-encrypted block."""
    doc = create_document("abcdefgh" * 500, key_material=KEYS,
                          scheme=scheme, rng=_CountingRng())
    burst = _scattered_burst(doc.char_length, 2)

    bulk_calls = _count_bulk_calls(doc)
    before = _aes_snap()
    blocks_before = value_of("doc.blocks_reencrypted")
    doc.apply_delta(burst)
    after = _aes_snap()

    blocks = value_of("doc.blocks_reencrypted") - blocks_before
    suffix = 1 if scheme == "rpc" else 0
    assert bulk_calls == [blocks + suffix]
    assert after["calls"] - before["calls"] == blocks + suffix


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
def test_burst_ciphertext_identical_to_sequential_path(scheme):
    """The batched cipher call changes call boundaries only — the wire
    bytes and the cdelta match the per-cluster reference path."""
    def build():
        return create_document("abcdefgh" * 500, key_material=KEYS,
                               scheme=scheme, rng=_CountingRng())

    batched, sequential = build(), build()
    sequential._coalesce_ciphers = False
    assert batched.wire() == sequential.wire()

    burst = _scattered_burst(batched.char_length, 30)
    cd_b = batched.apply_delta(burst)
    cd_s = sequential.apply_delta(burst)
    assert cd_b.serialize() == cd_s.serialize()
    assert batched.wire() == sequential.wire()
