"""The client-side editor model.

Everything content-related in the target applications happens client
side (that is the design property the whole approach rests on); the
:class:`EditorBuffer` is that client state: the full plaintext, edit
operations, and the delta computation that feeds incremental saves.

Each save's delta comes from a keystroke journal: every edit is folded
into one running delta by an :class:`~repro.client.coalesce.
EditCoalescer`, so :meth:`pending_delta` is O(burst) instead of
re-diffing the whole document, and the burst reaches IncE as a single
delta (one re-encryption pass).  When the journal cannot speak
for the buffer — a wholesale :meth:`set_text`, or a pathologically long
unsaved burst — it is invalidated and the buffer falls back to the
Myers diff against the last-synced text, which is also the
cross-check: a journal delta that fails to reproduce the current text
is discarded in favour of the diff.
"""

from __future__ import annotations

from repro.client.coalesce import EditCoalescer
from repro.core.delta import Delta
from repro.errors import DeltaApplicationError
from repro.workloads.diff import derive_delta

__all__ = ["EditorBuffer"]

#: journal cap per save interval; past this the O(burst) compose no
#: longer beats one Myers diff and the journal steps aside
_JOURNAL_MAX_OPS = 512


class EditorBuffer:
    """Plaintext document state plus save-boundary tracking."""

    def __init__(self, text: str = ""):
        self._text = text
        self._synced_text = text
        #: keystrokes since the last sync point, composed into one
        #: delta; flush points coincide with sync points by design
        self._journal = EditCoalescer(max_ops=_JOURNAL_MAX_OPS,
                                      overflow="invalidate")

    # -- reading ------------------------------------------------------

    @property
    def text(self) -> str:
        return self._text

    def __len__(self) -> int:
        return len(self._text)

    @property
    def synced_text(self) -> str:
        """The text as of the last successful save."""
        return self._synced_text

    @property
    def dirty(self) -> bool:
        """Has the buffer changed since the last sync point?"""
        return self._text != self._synced_text

    # -- editing ------------------------------------------------------

    def insert(self, pos: int, text: str) -> None:
        """Insert ``text`` at ``pos``."""
        if not 0 <= pos <= len(self._text):
            raise DeltaApplicationError(
                f"insert position {pos} outside [0, {len(self._text)}]"
            )
        if not text:
            return
        self._text = self._text[:pos] + text + self._text[pos:]
        self._journal.add(Delta.insertion(pos, text))

    def delete(self, pos: int, count: int) -> None:
        """Delete ``count`` characters at ``pos``."""
        if not 0 <= pos <= pos + count <= len(self._text):
            raise DeltaApplicationError(
                f"delete range [{pos}, {pos + count}) outside document"
            )
        if not count:
            return
        self._text = self._text[:pos] + self._text[pos + count:]
        self._journal.add(Delta.deletion(pos, count))

    def replace(self, pos: int, count: int, text: str) -> None:
        """Replace ``count`` characters at ``pos`` with ``text``."""
        self.delete(pos, count)
        self.insert(pos, text)

    def apply_delta(self, delta: Delta) -> None:
        """Apply a delta to the buffer."""
        self._text = delta.apply(self._text)
        self._journal.add(delta)

    def set_text(self, text: str) -> None:
        """Replace the whole text, keeping the last sync point (so the
        change is included in the next pending delta)."""
        self._text = text
        self._journal.invalidate()

    # -- save-boundary bookkeeping --------------------------------------

    def pending_delta(self) -> Delta:
        """The delta from the last sync point to the current text.

        O(burst) from the keystroke journal when it is live; Myers diff
        of the two texts otherwise.  The journal's answer is verified
        against the current text before being trusted.
        """
        if self._journal.valid:
            delta = self._journal.peek()
            try:
                if delta.apply(self._synced_text) == self._text:
                    return delta
            except DeltaApplicationError:
                pass
            # the journal lost the plot (should not happen; the diff
            # both recovers and keeps the save correct)
            self._journal.invalidate()
        return derive_delta(self._synced_text, self._text)

    def mark_synced(self) -> None:
        """Record that the current text reached the server."""
        self._synced_text = self._text
        self._journal.flush("save")

    def resync(self, text: str, reason: str = "resync") -> None:
        """Adopt authoritative content (conflict recovery); ``reason``
        labels the burst boundary (``"resync"`` or ``"conflict"``)."""
        self._text = text
        self._synced_text = text
        self._journal.flush(reason)
