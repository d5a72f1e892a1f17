"""Regression bound: what one coalesced burst costs the cipher.

A burst of N keystrokes is composed into one delta, so it costs one
IncE pass: every touched cluster is re-encrypted with exactly one
``encrypt_many`` over its new blocks, and schemes with a checksum
record rewrite it once per burst.  These tests pin that with counter
arithmetic — the AES invocation counters may not move by more than the
re-encrypted blocks plus the checksum, ever — and pin the burst's
ciphertext bytes with a known answer.

The document is built over a cipher-free stub RNG so nonce-buffer
refills (which legitimately call the cipher too) cannot blur the
accounting, and so the known answers are reproducible.
"""

import hashlib

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


def _build(scheme: str):
    return create_document("abcdefgh" * 500, key_material=KEYS,
                           scheme=scheme, rng=_CountingRng())


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


def _check_burst_cost(scheme: str, edits: int) -> int:
    """Apply a scattered burst; assert the cipher bound; return the
    number of clusters it touched."""
    doc = _build(scheme)
    burst = _scattered_burst(doc.char_length, edits)
    suffix = 1 if scheme == "rpc" else 0

    bulk_calls = _count_bulk_calls(doc)
    before = _aes_snap()
    blocks_before = value_of("doc.blocks_reencrypted")
    clusters_before = value_of("doc.clusters")
    doc.apply_delta(burst)
    after = _aes_snap()

    blocks = value_of("doc.blocks_reencrypted") - blocks_before
    clusters = value_of("doc.clusters") - clusters_before
    assert blocks >= edits

    # one encrypt_many per cluster, together covering every block
    assert len(bulk_calls) == clusters
    assert sum(bulk_calls) == blocks
    # and nothing else: one AES block per re-encrypted block, plus the
    # scheme's checksum record
    assert after["calls"] - before["calls"] == blocks + suffix
    assert after["encrypt_calls"] - before["encrypt_calls"] == (
        blocks + suffix)
    return clusters


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
def test_aes_calls_match_blocks_per_burst(scheme):
    """A scattered 30-edit burst: many clusters, still one AES block
    per re-encrypted block and one checksum rewrite."""
    assert _check_burst_cost(scheme, 30) >= 2


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
def test_small_burst_is_single_pass(scheme):
    """A two-edit burst is one pass too — exactly one AES block per
    re-encrypted block."""
    assert _check_burst_cost(scheme, 2) >= 1


#: sha256 of (cdelta wire, full ciphertext) after the 30-edit
#: scattered burst, from a fresh ``_build`` document
KNOWN_ANSWERS = {
    "recb": (
        "cb738682cce1517abcef1ebca1afe7f3b4151e0296462cd32af03b23f4db36a6",
        "40dee570bd51c095512f29d48413de68b48d47a4fcf7a59f4ee356c3f471cafa",
    ),
    "rpc": (
        "0a25a4225a0ffd671add827ababf6e82012d65469482342c826fa3de8c0850f8",
        "53b0480996cd7e59d128fb36a019551d700d93f7e2cf4af83672cba6a4e730ac",
    ),
}


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
def test_burst_ciphertext_known_answer(scheme):
    """How IncE splits its cipher calls must never change the bytes:
    the burst's cdelta and the resulting ciphertext are pinned."""
    doc = _build(scheme)
    cdelta = doc.apply_delta(_scattered_burst(doc.char_length, 30))

    def sha(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    assert (sha(cdelta.serialize()), sha(doc.wire())) == KNOWN_ANSWERS[scheme]
