"""Adversary models from the threat model (SII).

* :class:`EavesdropperTap` — the passive network observer (the paper
  notes most 2011 cloud servers ran without SSL); records every
  post-mediation exchange for later analysis; :func:`request_sightings`
  applies its plaintext match to bare requests (``FaultPlan.observed``).
* :class:`HonestButCuriousServer` — the curious provider: full access to
  the stored ciphertext *and its revision history* plus all observed
  update traffic; offers the inference helpers the analysis module
  quantifies.
* :class:`ActiveServerAdversary` — the malicious provider: mutates
  stored content directly (the attacks of :mod:`repro.security.attacks`
  operate through it).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.core.auditchain import AuditChain
from repro.core.delta import Delete, Delta, Insert, Retain
from repro.encoding.formenc import quote
from repro.encoding.wire import RECORD_CHARS, split_header
from repro.errors import CiphertextFormatError
from repro.net.channel import Exchange
from repro.services.gdocs import protocol
from repro.services.gdocs.storage import DocumentStore

__all__ = [
    "EavesdropperTap",
    "request_sightings",
    "ObservedUpdate",
    "HonestButCuriousServer",
    "ActiveServerAdversary",
]


@dataclass(frozen=True)
class ObservedUpdate:
    """What an adversary can read off one content-update exchange.

    Even with all content encrypted, the *structure* of a cdelta is
    plaintext: which record ranges changed, how many records were
    inserted/deleted, and when.  This is exactly the positional/timing
    leakage SVI-A concedes.
    """

    at: float
    kind: str                    #: "full" | "delta" | "other"
    body_chars: int
    retained_records: int
    deleted_records: int
    inserted_records: int


class EavesdropperTap:
    """Passive observer collecting exchanges from a Channel tap."""

    def __init__(self) -> None:
        self.exchanges: list[Exchange] = []

    def __call__(self, exchange: Exchange) -> None:
        self.exchanges.append(exchange)

    # -- inference ------------------------------------------------------

    def observed_updates(self) -> list[ObservedUpdate]:
        """Classify every captured exchange."""
        out: list[ObservedUpdate] = []
        for exchange in self.exchanges:
            request = exchange.request
            if request.method != "POST" or not request.body:
                continue
            form = request.form
            if protocol.F_DOC_CONTENTS in form:
                out.append(ObservedUpdate(
                    at=exchange.sent_at, kind="full",
                    body_chars=len(request.body),
                    retained_records=0, deleted_records=0,
                    inserted_records=len(form[protocol.F_DOC_CONTENTS])
                    // RECORD_CHARS,
                ))
            elif protocol.F_DELTA in form:
                ret, dele, ins = _delta_record_stats(form[protocol.F_DELTA])
                out.append(ObservedUpdate(
                    at=exchange.sent_at, kind="delta",
                    body_chars=len(request.body),
                    retained_records=ret, deleted_records=dele,
                    inserted_records=ins,
                ))
        return out

    def plaintext_sightings(self, needle: str) -> int:
        """How many captured requests (URL or body) and responses carry
        ``needle``, verbatim or form-encoded — the basic confidentiality
        check (0 when the extension is on)."""
        spellings = _spellings(needle)
        return sum(_carries(spellings, e.request.body, e.request.url)
                   + _carries(spellings, e.response.body)
                   for e in self.exchanges)


def request_sightings(requests, needle: str) -> int:
    """How many ``requests`` carry ``needle`` in URL or body, by the
    match of :meth:`EavesdropperTap.plaintext_sightings`."""
    spellings = _spellings(needle)
    return sum(_carries(spellings, r.body, r.url) for r in requests)


@functools.lru_cache(maxsize=128)
def _spellings(needle: str) -> tuple[str, ...]:
    """``needle`` verbatim and form-encoded; one scan when they agree."""
    return tuple(dict.fromkeys((needle, quote(needle))))


def _carries(spellings: tuple[str, ...], *texts: str) -> bool:
    return any(s in text for s in spellings for text in texts)


def _delta_record_stats(delta_text: str) -> tuple[int, int, int]:
    try:
        delta = Delta.parse(delta_text)
    except Exception:
        return 0, 0, 0
    retained = sum(
        op.count for op in delta.ops if isinstance(op, Retain)
    ) // RECORD_CHARS
    deleted = sum(
        op.count for op in delta.ops if isinstance(op, Delete)
    ) // RECORD_CHARS
    inserted = sum(
        len(op.text) for op in delta.ops if isinstance(op, Insert)
    ) // RECORD_CHARS
    return retained, deleted, inserted


class HonestButCuriousServer:
    """The curious provider's view over a document store."""

    def __init__(self, store: DocumentStore):
        self._store = store

    def current_ciphertext(self, doc_id: str) -> str:
        """The stored content for ``doc_id`` as the provider sees it."""
        return self._store.get(doc_id).content

    def version_history(self, doc_id: str) -> list[str]:
        """Every prior stored version (the leak of reference [1])."""
        return list(self._store.get(doc_id).history)

    def record_count(self, doc_id: str) -> int:
        """Number of wire records currently stored for ``doc_id``."""
        content = self.current_ciphertext(doc_id)
        try:
            _, area = split_header(content)
        except CiphertextFormatError:
            return 0
        return len(area) // RECORD_CHARS

    def length_estimate(self, doc_id: str, block_chars: int) -> int:
        """The provider's best guess of plaintext length: record count
        times block capacity (the only length signal available)."""
        data_records = max(0, self.record_count(doc_id) - 2)
        return data_records * block_chars


class ActiveServerAdversary(HonestButCuriousServer):
    """A provider that also tampers with what it stores."""

    def overwrite(self, doc_id: str, content: str) -> None:
        """Replace the stored content directly (active tampering)."""
        doc = self._store.get(doc_id)
        doc.history.append(doc.content)
        doc.content = content
        doc.revision += 1

    def rollback(self, doc_id: str, versions_back: int = 1) -> str:
        """Replay an old version (undetectable by any per-document
        scheme, as the paper's freshness discussion implies)."""
        doc = self._store.get(doc_id)
        target = doc.history[-versions_back]
        self.overwrite(doc_id, target)
        return target

    def forge_chain(self, catalog, doc_id: str, history) -> None:
        """Rebuild a catalog's audit chain wholesale over ``history``
        (``(rev, content_hash)`` pairs) — the sophisticated rollback: a
        *self-consistent* forgery whose every link recomputes, which
        only a client remembering an earlier head can refute.  The
        provider owns the catalog store, so reaching into it is exactly
        what the threat model grants."""
        chain = AuditChain()
        for rev, content_hash in history:
            chain.append(rev, content_hash)
        with catalog._lock:
            catalog._chains[doc_id] = chain
