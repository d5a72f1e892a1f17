"""The mirror's patched stored string: ``stored_wire() == wire()``.

``EncryptedDocument.stored_wire`` keeps the encoded stored form as a
string and applies each emitted cdelta to it, the way the server
applies it to its copy; ``wire()`` re-encodes every record and is the
oracle.  These tests walk the cache through every way a document
changes — create, load, random deltas, rekey, RPC delete-all and
retype, a rejected delta — and pin the security property the ack
check rests on: a server that tampers with the stored ciphertext is
still caught, and an honest one never is.
"""

import random

import pytest

from repro.core import Delta, KeyMaterial, create_document, load_document
from repro.crypto.random import DeterministicRandomSource
from repro.datastructures import IndexedAVL, IndexedSkipList
from repro.errors import DeltaApplicationError
from repro.extension.session import PrivateEditingSession
from repro.obs import capture

KEYS = KeyMaterial.from_password("stored", salt=b"storedwire")

INDEXES = {"skiplist": IndexedSkipList, "avl": IndexedAVL}

TEXT = "the quick brown fox jumps over the lazy dog. " * 12


@pytest.fixture(params=[(s, i) for s in ("recb", "rpc") for i in INDEXES],
                ids=lambda p: f"{p[0]}-{p[1]}")
def doc(request):
    scheme, index = request.param
    return create_document(TEXT, key_material=KEYS, scheme=scheme,
                           block_chars=8, rng=DeterministicRandomSource(11),
                           index_factory=INDEXES[index])


def _random_delta(rng: random.Random, length: int) -> Delta:
    pos = rng.randint(0, length)
    count = rng.randint(1, min(20, length - pos)) if pos < length else 0
    text = "".join(rng.choice("abc xyz\n") for _ in range(rng.randint(0, 12)))
    if count and text:
        return Delta.replacement(pos, count, text)
    if count:
        return Delta.deletion(pos, count)
    return Delta.insertion(pos, text or "q")


class TestCacheLifecycle:
    def test_after_create(self, doc):
        assert doc.stored_wire() == doc.wire()

    def test_after_load(self, doc):
        loaded = load_document(doc.wire(), key_material=KEYS)
        assert loaded.stored_wire() == loaded.wire() == doc.wire()

    def test_after_each_of_200_random_deltas(self, doc):
        rng = random.Random(1234)
        doc.stored_wire()
        for step in range(200):
            doc.apply_delta(_random_delta(rng, doc.char_length))
            assert doc.stored_wire() == doc.wire(), f"drift at delta {step}"

    def test_delta_patches_without_reencoding(self, doc):
        """A seeded cache is patched with the cdelta's own records: the
        save encodes the cluster, not the document."""
        doc.stored_wire()
        with capture() as cap:
            doc.apply_delta(Delta.insertion(doc.char_length // 2, "word "))
            doc.stored_wire()
        assert cap["encoding.wire.records_encoded"] == \
            cap["doc.cdelta_records"]

    def test_after_rekey(self, doc):
        doc.stored_wire()
        doc.rekey(password="a new password")
        assert doc.stored_wire() == doc.wire()
        doc.apply_delta(Delta.insertion(3, "after rekey "))
        assert doc.stored_wire() == doc.wire()

    def test_after_delete_all_and_retype(self, doc):
        doc.stored_wire()
        doc.apply_delta(Delta.deletion(0, doc.char_length))
        assert doc.char_length == 0
        assert doc.stored_wire() == doc.wire()
        for pos, text in ((0, "typed "), (6, "again"), (0, ">> ")):
            doc.apply_delta(Delta.insertion(pos, text))
            assert doc.stored_wire() == doc.wire()
        assert doc.text == ">> typed again"

    def test_after_rejected_delta(self, doc):
        doc.stored_wire()
        before = doc.wire()
        with pytest.raises(DeltaApplicationError):
            doc.apply_delta(Delta.deletion(0, doc.char_length + 1))
        assert doc.stored_wire() == doc.wire() == before
        doc.apply_delta(Delta.insertion(0, "still editable "))
        assert doc.stored_wire() == doc.wire()


def _session(scheme: str) -> PrivateEditingSession:
    session = PrivateEditingSession(
        "tamper-doc", "pw", scheme=scheme, block_chars=8,
        verify_acks=True, rng=DeterministicRandomSource(7))
    session.open()
    session.type_text(0, TEXT)
    assert session.save().ok
    return session


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
class TestAckCheckStillCatchesTampering:
    def test_flipped_stored_char_raises_mismatch(self, scheme):
        session = _session(scheme)
        stored = session.server.store.get("tamper-doc")
        content = stored.content
        mid = len(content) // 2  # far from the edit at the end
        flipped = "A" if content[mid] != "A" else "B"
        stored.content = content[:mid] + flipped + content[mid + 1:]
        session.type_text(len(session.text), " appended")
        with capture() as cap:
            outcome = session.save()
        assert cap["extension.ack_hash_mismatches"] == 1
        assert outcome.conflict

    def test_honest_server_never_mismatches(self, scheme):
        session = _session(scheme)
        rng = random.Random(99)
        with capture() as cap:
            for _ in range(100):
                pos = rng.randint(0, len(session.text))
                session.type_text(pos, rng.choice(["x", "yz ", "\n"]))
                outcome = session.save()
                assert outcome.ok and not outcome.conflict
        assert cap["extension.ack_hash_mismatches"] == 0
        mirror = session.extension.engine("tamper-doc").mirror
        assert mirror.stored_wire() == mirror.wire() == \
            session.server_view()
