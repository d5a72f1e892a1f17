"""Encoder round-trips fed from the fuzzer's string corpus.

``tests/property/test_prop_encoding.py`` covers these codecs with
hypothesis-generated inputs; this module feeds them the *same* seeded
corpus the differential fuzzer edits with (`repro.fuzz.generators` —
reused, not duplicated), so the degenerate shapes the fuzzer is known
to produce (empty strings, astral-plane unicode, form metacharacters,
percent-escape look-alikes, block-boundary lengths) are each pinned
through every codec the pipeline crosses:

* ``formenc`` — the quoting layer every save request and Ack rides on;
* ``base32`` — ciphertext alphabet, fast path cross-checked against
  the scalar reference;
* ``wire`` — record framing, batched NumPy path against the per-record
  path;
* ``stego`` — the pseudo-prose disguise over whole wire documents.
"""

from __future__ import annotations

import pytest

from repro.core import KeyMaterial, create_document, load_document
from repro.crypto.random import DeterministicRandomSource
from repro.encoding import base32, formenc
from repro.encoding.stego import looks_stego, stego_unwrap, stego_wrap
from repro.encoding.wire import (
    RECORD_CHARS,
    Record,
    decode_record,
    decode_records,
    encode_record,
    encode_records,
)
from repro.fuzz.generators import corpus_strings

#: one seeded draw shared by every test in the module — the corpus the
#: fuzzer types with, so any divergence found here has a fuzz trace too
CORPUS = corpus_strings(1729, 64)
CORPUS_IDS = [f"s{i}" for i in range(len(CORPUS))]

#: the same strings as byte payloads for the binary codecs
BLOBS = [s.encode("utf-8") for s in CORPUS]

KEYS = KeyMaterial.from_password("prop-encoders",
                                 salt=b"prop-encoders-salt")


@pytest.mark.parametrize("text", CORPUS, ids=CORPUS_IDS)
class TestFormEncoding:
    def test_quote_round_trip(self, text):
        assert formenc.unquote(formenc.quote(text)) == text

    def test_quote_no_plus_round_trip(self, text):
        """Spaces written as ``%20`` (``encodeURIComponent`` style)
        decode as well as ``+``."""
        quoted = formenc.quote(text).replace("+", "%20")
        assert formenc.unquote(quoted) == text

    def test_quoted_text_is_wire_safe(self, text):
        """Quoted values may not contain the form metacharacters that
        would merge or split pairs on the wire."""
        quoted = formenc.quote(text)
        assert "&" not in quoted and "=" not in quoted

    def test_form_round_trip(self, text):
        fields = {"docContents": text, "sid": "s", "rev": "0"}
        assert formenc.parse_form(formenc.encode_form(fields)) == fields


@pytest.mark.parametrize("blob", BLOBS, ids=CORPUS_IDS)
class TestBase32:
    def test_fast_encode_matches_scalar(self, blob):
        assert base32.encode(blob) == base32._encode_scalar(blob)
        assert base32.encode(blob, pad=True) == \
            base32._encode_scalar(blob, pad=True)

    def test_fast_decode_matches_scalar(self, blob):
        text = base32.encode(blob)
        assert base32.decode(text) == base32._decode_scalar(text) == blob


class TestWireRecords:
    @staticmethod
    def _records(blob: bytes) -> list[Record]:
        padded = blob + bytes(16)
        return [
            Record(char_count=min(len(blob), 255),
                   block=padded[i : i + 16])
            for i in range(0, max(len(blob), 1), 16)
        ]

    @pytest.mark.parametrize("blob", BLOBS, ids=CORPUS_IDS)
    def test_single_record_round_trip(self, blob):
        record = self._records(blob)[0]
        text = encode_record(record)
        assert len(text) == RECORD_CHARS
        assert decode_record(text) == record

    def test_batched_path_matches_per_record_path(self):
        """`encode_records` switches to the NumPy bit-unpack at 8+
        records; both paths must produce identical wire text."""
        records = [r for blob in BLOBS for r in self._records(blob)]
        assert len(records) >= 8
        batched = encode_records(records)
        assert batched == "".join(encode_record(r) for r in records)
        assert decode_records(batched) == records


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
class TestStego:
    @staticmethod
    def _wire(text: str, scheme: str) -> str:
        return create_document(
            text, key_material=KEYS, scheme=scheme, block_chars=8,
            rng=DeterministicRandomSource(11),
        ).wire()

    @pytest.mark.parametrize(
        "text", CORPUS[:24], ids=CORPUS_IDS[:24])
    def test_wrap_unwrap_round_trip(self, scheme, text):
        wire = self._wire(text, scheme)
        wrapped = stego_wrap(wire)
        assert looks_stego(wrapped)
        assert stego_unwrap(wrapped) == wire

    def test_unwrapped_corpus_document_decrypts(self, scheme):
        text = "".join(CORPUS[:12])
        wire = self._wire(text, scheme)
        reloaded = load_document(stego_unwrap(stego_wrap(wire)),
                                 key_material=KEYS)
        assert reloaded.text == text
