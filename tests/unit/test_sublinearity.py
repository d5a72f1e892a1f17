"""The paper's sub-linearity claim as a counter-based regression test.

Section V claims IncE does work proportional to the edited cluster plus
the index search path — O(cluster + log n) — not to the document size.
Timing cannot enforce that robustly in CI, but operation counts can:
``obs.capture`` diffs ``crypto.aes.calls`` and ``index.node_visits``
around a single-word edit on a >=10k-block document and bounds them by
``blocks_reencrypted + C*log2(n)``.  If ``apply_delta`` ever degrades
to touching O(n) blocks, these bounds fail by orders of magnitude
(measured: ~3 AES calls for the edit vs ~17k for a full rewrite).

The same holds for the extension's side of a whole delta save, ack
check included: ``encoding.wire.records_encoded`` counts the records
Base32-encoded around one save through a ``verify_acks`` session, and
must stay at the cluster (plus the RPC checksum) from 10k to 400k
stored chars — the ack is checked against the mirror's patched stored
string, not a re-encode of the whole document.
"""

import functools
import math

import pytest

from repro.core import Delta, KeyMaterial, create_document
from repro.crypto.random import DeterministicRandomSource
from repro.extension.session import PrivateEditingSession
from repro.obs import capture

KEYS = KeyMaterial.from_password("sublinear", salt=b"sublinear1")

#: ~108k chars at block_chars=8 -> ~13.5k blocks, past the 10k floor
TEXT = "lorem ipsum dolor sit amet " * 4000

#: generous constants — the skip list's pole heights are randomized, so
#: visit counts vary between runs (measured 37-101 at n~13.5k since the
#: splice/get_range rewrite; 100-250 before it); the bounds leave ~3x
#: headroom over the worst observation while staying ~100x below the
#: O(n) cost a regression would produce
AES_LOG_FACTOR = 4
VISITS_LOG_FACTOR = 24


def _big_doc(scheme):
    return create_document(TEXT, key_material=KEYS, scheme=scheme,
                           block_chars=8, rng=DeterministicRandomSource(3))


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
class TestSingleEditIsSublinear:
    def test_aes_calls_bounded_by_cluster_plus_log(self, scheme):
        doc = _big_doc(scheme)
        n_blocks = doc.char_length // doc.block_chars
        assert n_blocks >= 10_000
        with capture() as cap:
            doc.apply_delta(Delta.replacement(doc.char_length // 2, 0,
                                              "word "))
        bound = cap["doc.blocks_reencrypted"] + \
            AES_LOG_FACTOR * math.log2(n_blocks)
        assert 0 < cap["crypto.aes.calls"] <= bound, (
            f"{scheme}: single-word edit on {n_blocks} blocks cost "
            f"{cap['crypto.aes.calls']} cipher calls (bound {bound:.0f}) — "
            f"apply_delta is no longer sub-linear"
        )
        assert cap["doc.clusters"] == 1

    def test_index_visits_logarithmic(self, scheme):
        doc = _big_doc(scheme)
        n_blocks = doc.char_length // doc.block_chars
        with capture() as cap:
            doc.apply_delta(Delta.replacement(doc.char_length // 2, 0,
                                              "word "))
        bound = VISITS_LOG_FACTOR * math.log2(n_blocks)
        assert 0 < cap["index.node_visits"] <= bound, (
            f"{scheme}: edit walked {cap['index.node_visits']} index nodes "
            f"(bound {bound:.0f}) — the block index is no longer O(log n)"
        )
        # The whole cluster must ride one range splice, not per-rank
        # delete/insert loops, and its level-0 walk is O(cluster).
        assert cap["index.splices"] == 1
        assert cap["index.range_visits"] <= 16 * cap["doc.blocks_repacked"] + 16

    def test_full_rewrite_shows_the_linear_contrast(self, scheme):
        """The same counters DO scale with n when every block changes —
        proof the sub-linear numbers above aren't an instrumentation
        blind spot.  Since the splice rewrite, the O(n) component of a
        whole-document replacement shows up as level-0 walk steps
        (``index.range_visits``), not as search-path descents."""
        doc = _big_doc(scheme)
        n_blocks = doc.char_length // doc.block_chars
        with capture() as cap:
            doc.apply_delta(Delta.replacement(0, doc.char_length,
                                              "x" * doc.char_length))
        assert cap["crypto.aes.calls"] >= n_blocks
        assert cap["index.range_visits"] >= n_blocks


#: plaintext sizes giving ~10k and ~400k stored chars at block_chars=8
#: (28 stored chars per 8-char block)
SMALL_PLAIN, LARGE_PLAIN = 2_850, 114_000


@functools.lru_cache(maxsize=None)
def _save_costs(scheme: str, plain_chars: int):
    """Counters around a session's first (full) save of ``plain_chars``
    chars and around one single-word delta save after it."""
    session = PrivateEditingSession(
        "sublinear", "pw", scheme=scheme, block_chars=8,
        verify_acks=True, rng=DeterministicRandomSource(5))
    session.open()
    session.type_text(0, (TEXT * 2)[:plain_chars])
    with capture() as full:
        assert session.save().kind == "full"
    session.type_text(plain_chars // 2, "word ")
    with capture() as delta:
        outcome = session.save()
    assert outcome.ok and outcome.kind == "delta" and not outcome.conflict
    return full, delta, len(session.server_view())


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
class TestDeltaSaveRoundTripIsSublinear:
    def test_sizes_span_10k_to_400k_stored(self, scheme):
        assert 9_000 <= _save_costs(scheme, SMALL_PLAIN)[2] <= 11_000
        assert 380_000 <= _save_costs(scheme, LARGE_PLAIN)[2] <= 420_000

    @pytest.mark.parametrize("plain", [SMALL_PLAIN, LARGE_PLAIN])
    def test_records_encoded_bounded_by_cluster(self, scheme, plain):
        _, delta, _ = _save_costs(scheme, plain)
        encoded = delta["encoding.wire.records_encoded"]
        checksum = 1 if scheme == "rpc" else 0
        assert 0 < encoded <= delta["doc.blocks_reencrypted"] + checksum, (
            f"{scheme}: one delta save encoded {encoded} records "
            f"(cluster {delta['doc.blocks_reencrypted']}) — something on "
            f"the save round trip re-encodes the whole document")
        assert delta["extension.ack_hash_mismatches"] == 0

    def test_records_encoded_flat_from_10k_to_400k(self, scheme):
        small = _save_costs(scheme, SMALL_PLAIN)[1]
        large = _save_costs(scheme, LARGE_PLAIN)[1]
        key = "encoding.wire.records_encoded"
        assert large[key] < 2 * small[key], (
            f"{scheme}: records encoded per delta save grew from "
            f"{small[key]} to {large[key]} across a 40x larger document")

    def test_full_save_shows_the_linear_contrast(self, scheme):
        """A full save encodes every block, so the counter scales with
        the document — the flat figures above are not a blind spot."""
        small = _save_costs(scheme, SMALL_PLAIN)[0]
        large = _save_costs(scheme, LARGE_PLAIN)[0]
        key = "encoding.wire.records_encoded"
        assert small[key] >= SMALL_PLAIN // 8
        assert large[key] >= LARGE_PLAIN // 8
        assert large[key] > 20 * small[key]
