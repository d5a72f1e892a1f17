"""Per-layer self time, measured from outside the program.

The benchmark wraps the public entry points of every layer (the table
in :data:`LAYERS`) with a timing shim and keeps one span stack per
thread.  A span is recorded only while the thread has an open root
span — one user operation (a save, an open, a search, a create) — so
work done during set-up, checks or on helper threads is never counted.

A span's *self time* is its duration minus the time its child spans
cover; the root's self time is what no wrapped layer claimed
(``unattributed_ms``).  Self times telescope, so the layer self times
plus the unattributed time must equal the summed root durations up to
rounding; :meth:`Tracer.closure_error` checks that identity, so a
bookkeeping error in the span stacks shows instead of silently moving
time between layers.

Modules bind functions such as ``parse_form`` into their own namespace
at import time, so :func:`install` replaces a module-level function in
*every* ``repro`` module that holds it, not only where it is defined.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = ["LAYERS", "Tracer", "install"]


def _targets() -> list[tuple[str, object, tuple[str, ...]]]:
    """``(layer, owner, attribute names)``: the wrapped entry points.

    An owner is a class (methods, class methods, ``__call__``) or a
    module (functions, replaced wherever they are bound)."""
    from repro.client.editor import EditorBuffer
    from repro.client.workspace import Workspace
    from repro.core import document
    from repro.core.document import EncryptedDocument
    from repro.core.keys import KeyMaterial
    from repro.crypto.blockcipher import AesCipher
    from repro.encoding import formenc, wire
    from repro.extension.catalog import WorkspaceIndexer
    from repro.extension.gdocs_ext import GDocsExtension
    from repro.net.channel import Channel
    from repro.net.transport import AsyncioSocketTransport, InProcessTransport
    from repro.services.catalog import CatalogService
    from repro.services.gdocs.server import GDocsServer
    from repro.services.gdocs.storage import DocumentStore

    return [
        ("client.pending_delta", EditorBuffer, ("pending_delta",)),
        ("client.audit_verify", Workspace, ("verify_history",)),
        ("extension.on_request", GDocsExtension, ("on_request",)),
        ("extension.on_response", GDocsExtension, ("on_response",)),
        ("extension.indexer", WorkspaceIndexer,
         ("adopt", "apply", "set_text")),
        ("core.apply_delta", EncryptedDocument, ("apply_delta",)),
        ("core.load", document, ("load_document", "create_document")),
        ("core.key_derive", KeyMaterial, ("from_password",)),
        ("crypto.cipher", AesCipher,
         ("encrypt_many", "decrypt_many", "encrypt_block", "decrypt_block")),
        ("encoding.form", formenc,
         ("parse_form", "encode_form", "quote", "unquote")),
        ("encoding.wire", wire,
         ("encode_records", "decode_records", "parse_document")),
        ("net.channel", Channel, ("send",)),
        ("net.transport", InProcessTransport, ("send",)),
        ("net.transport", AsyncioSocketTransport, ("send",)),
        ("services.server", GDocsServer, ("__call__",)),
        ("services.store_apply", DocumentStore, ("apply_delta",)),
        ("services.catalog", CatalogService, ("__call__",)),
    ]


#: every layer a span can be charged to, in report order
LAYERS = (
    "client.pending_delta", "client.audit_verify",
    "extension.on_request", "extension.on_response", "extension.indexer",
    "core.apply_delta", "core.load", "core.key_derive",
    "crypto.cipher", "encoding.form", "encoding.wire",
    "net.channel", "net.transport",
    "services.server", "services.store_apply", "services.catalog",
)


class _Frame:
    __slots__ = ("layer", "start", "children")

    def __init__(self, layer: str, start: float):
        self.layer = layer
        self.start = start
        self.children = 0.0


class _ThreadTotals:
    """One thread's accumulators (merged when the run ends, so two
    driver threads never race on a shared read-modify-write)."""

    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.inclusive_s = dict.fromkeys(LAYERS, 0.0)
        self.depth = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.root_s = 0.0
        self.root_self_s = 0.0
        self.roots = 0


class Tracer:
    """Span stacks and self-time totals for the traced operations."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._all: list[_ThreadTotals] = []
        self._lock = threading.Lock()

    def _totals(self) -> _ThreadTotals:
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = _ThreadTotals()
            self._local.totals = totals
            with self._lock:
                self._all.append(totals)
        return totals

    @contextmanager
    def root(self) -> Iterator[None]:
        """One traced user operation on this thread."""
        totals = self._totals()
        if totals.stack:
            raise RuntimeError("root span opened inside another span")
        frame = _Frame("", time.perf_counter())
        totals.stack.append(frame)
        try:
            yield
        finally:
            duration = time.perf_counter() - frame.start
            totals.stack.pop()
            totals.root_s += duration
            totals.root_self_s += duration - frame.children
            totals.roots += 1

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` timed as a span of ``layer`` whenever a root is open."""
        local = self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            totals = getattr(local, "totals", None)
            if totals is None or not totals.stack:
                return fn(*args, **kwargs)
            frame = _Frame(layer, clock())
            stack = totals.stack
            stack.append(frame)
            totals.depth[layer] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame.start
                stack.pop()
                totals.depth[layer] -= 1
                if not totals.depth[layer]:  # outermost span of its layer
                    totals.inclusive_s[layer] += duration
                totals.self_s[layer] += duration - frame.children
                totals.calls[layer] += 1
                stack[-1].children += duration

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    # -- results ------------------------------------------------------------

    def _sum(self, attr: str) -> float:
        return sum(getattr(t, attr) for t in self._all)

    @property
    def roots(self) -> int:
        """Traced operations completed."""
        return int(self._sum("roots"))

    @property
    def root_ms(self) -> float:
        """Summed duration of every traced operation."""
        return self._sum("root_s") * 1000

    @property
    def unattributed_ms(self) -> float:
        """Root time no wrapped layer claimed."""
        return self._sum("root_self_s") * 1000

    def self_ms(self, layer: str) -> float:
        """Summed self time of ``layer`` across threads."""
        return sum(t.self_s[layer] for t in self._all) * 1000

    def inclusive_ms(self, layer: str) -> float:
        """Time inside ``layer``'s outermost spans, children included."""
        return sum(t.inclusive_s[layer] for t in self._all) * 1000

    def calls(self, layer: str) -> int:
        """Spans recorded for ``layer`` across threads."""
        return sum(t.calls[layer] for t in self._all)

    def closure_error(self) -> float:
        """``|root - (layers + unattributed)| / root``: 0 when every
        span closed inside its own root."""
        root = self.root_ms
        if root <= 0:
            return 0.0
        parts = sum(self.self_ms(layer) for layer in LAYERS) \
            + self.unattributed_ms
        return abs(root - parts) / root


def _rebind(original: Callable, replacement: Callable) -> list[tuple]:
    """Point every ``repro`` module global bound to ``original`` at
    ``replacement``; returns what to undo."""
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


@contextmanager
def install(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every entry point in :func:`_targets` for the duration."""
    undo: list[tuple] = []
    try:
        for layer, owner, names in _targets():
            for name in names:
                if isinstance(owner, type):
                    raw = owner.__dict__[name]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(tracer.wrap(layer, raw.__func__))
                    else:
                        wrapped = tracer.wrap(layer, raw)
                    setattr(owner, name, wrapped)
                    undo.append((owner, name, raw))
                else:
                    original = getattr(owner, name)
                    undo.extend(
                        _rebind(original, tracer.wrap(layer, original)))
        yield tracer
    finally:
        for owner, name, raw in reversed(undo):
            setattr(owner, name, raw)
