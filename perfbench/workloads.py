"""The benchmark's three workloads: set-up, a timed operation stream,
and the output checks that decide whether the run was correct.

Every workload is a closed loop: an editor waits for the ack of one
autosave before it types towards the next.  All inputs — document
text, edit positions, search words, fault plans, skip-list pole
heights — come from the ``--seed``; nonces come from the program's
default :class:`~repro.crypto.random.SystemRandomSource`, so the crypto
layer is measured as users run it, while every size and count repeats
for a given seed.

* :class:`EditLarge` — one user typing into one ~100k-char RPC
  document in process: every O(n) stage of the delta-save path shows.
* :class:`WorkspaceCold` — a tenant workspace with encrypted search in
  process: cold opens, creates and catalog searches over a 40-document
  corpus; bulk crypto, the form codec and the indexer carry the time.
* :class:`FleetSocket` — 64 small documents over TCP to a
  ``repro serve`` process of its own, with recoverable faults: the
  transport, pool, server loop and retry path carry the time.
"""

from __future__ import annotations

import math
import os
import random
import socket
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Callable

from repro.bench.load import percentile
from repro.client.workspace import Workspace
from repro.datastructures.indexed_skiplist import IndexedSkipList
from repro.errors import NetworkTimeoutError, ReproError
from repro.extension.catalog import extract_words
from repro.extension.session import PrivateEditingSession
from repro.net.faults import FaultPlan, updates_only
from repro.net.policy import RetryPolicy
from repro.net.pool import ConnectionPool
from repro.net.transport import AsyncioSocketTransport, InProcessTransport
from repro.obs import value_of
from repro.security.adversary import EavesdropperTap
from repro.services import registry

from pace import Pace

__all__ = ["WORKLOADS", "Recorder", "Workload", "EditLarge",
           "WorkspaceCold", "FleetSocket"]

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

COMMON_WORDS = ("the", "and", "cloud", "private", "editor", "data")
_LETTERS = "abcdefghijklmnopqrstuvwxyz"

#: counters snapshotted per run (``repro.obs`` names -> report names)
COUNTERS = {
    "crypto.aes.calls": "crypto.aes_calls",
    "crypto.aes.batch_calls": "crypto.aes_batch_calls",
    "index.node_visits": "index.node_visits",
    "client.pool.window_waits": "net.pool_window_waits",
    "client.retries.attempts": "net.retries",
    "net.faults.injected": "net.faults_injected",
    "gdocs.pieces.materializations": "services.materializations",
}


def _snapshot() -> dict[str, float]:
    names = [*COUNTERS, "net.wire_bytes", "extension.ack_hash_mismatches"]
    return {name: value_of(name) for name in names}


def _diff(after: dict[str, float],
          before: dict[str, float]) -> dict[str, float]:
    return {name: after[name] - before[name] for name in after}


class TextSource:
    """Seeded prose: a few common words and a long tail of rare ones.

    Rare words are letters only, so a token with a digit in it can never
    occur in a document (the workspace's *absent* search words)."""

    def __init__(self, rng: random.Random, tail: int = 4000):
        self.rng = rng
        seen = set(COMMON_WORDS)
        self.rare: list[str] = []
        while len(self.rare) < tail:
            word = "".join(rng.choice(_LETTERS)
                           for _ in range(rng.randint(4, 9)))
            if word not in seen:
                seen.add(word)
                self.rare.append(word)

    def word(self) -> str:
        rng = self.rng
        if rng.random() < 0.4:
            return rng.choice(COMMON_WORDS)
        # squared uniform: a skewed but long tail over the rare words
        return self.rare[int(len(self.rare) * rng.random() ** 2)]

    def text(self, chars: int, sentinels: tuple[str, ...] = ()) -> str:
        """About ``chars`` characters of prose, ``sentinels`` spliced in
        at word boundaries."""
        words: list[str] = []
        size = 0
        while size < chars:
            word = self.word()
            words.append(word)
            size += len(word) + 1
        for sentinel in sentinels:
            words.insert(self.rng.randrange(len(words) + 1), sentinel)
        return " ".join(words)


def sentinels_for(seed: int) -> tuple[str, ...]:
    """Plaintext marker words that must never be seen on the wire.

    Lower-case, while ciphertext is upper-case Base32, so a sighting
    can only be a plaintext leak."""
    return tuple(f"sentinel{_LETTERS[i]}{seed}leak" for i in range(3))


class SentinelTap(EavesdropperTap):
    """An eavesdropper that scans each exchange for the plaintext
    sentinels as it passes and keeps only the counts, so a long run's
    traffic does not pile up in the client's memory."""

    def __init__(self, sentinels: tuple[str, ...]):
        super().__init__()
        self.sentinels = sentinels
        self.seen = dict.fromkeys(sentinels, 0)

    def __call__(self, exchange) -> None:
        self.exchanges = [exchange]
        for word in self.sentinels:
            self.seen[word] += self.plaintext_sightings(word)
        self.exchanges = []


def decrypts_to(stored: str, password: str, scheme: str,
                expect: str) -> bool:
    """Whether stored gdocs bytes decrypt to ``expect`` (bytes that do
    not decrypt at all do not)."""
    try:
        return registry.decrypt_view("gdocs", stored, password,
                                     scheme) == expect
    except ReproError:
        return False


def seeded_index(seed: int) -> Callable[[], IndexedSkipList]:
    """Skip-list factory with seeded pole heights, so node-visit counts
    repeat for a seed."""
    return lambda: IndexedSkipList(rng=random.Random(seed))


class Recorder:
    """Latencies, operation counts and trace parity of one driver thread.

    With a tracer, every other operation of each kind runs under a root
    span; the rest run untraced beside them, which is what the tracing
    overhead is measured against."""

    def __init__(self, tracer=None, pace: Pace | None = None):
        self.samples: dict[str, list[float]] = {
            "open": [], "save": [], "search": []}
        #: when each sample ended (``perf_counter``)
        self.stamps: dict[str, list[float]] = {
            kind: [] for kind in self.samples}
        #: indices into ``samples[kind]`` by ``(kind, stratum)``, where a
        #: step names one
        self.strata: dict[tuple[str, int], list[int]] = {}
        self.traced: dict[str, list[float]] = {}
        self.untraced: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.traced_ops = 0
        self.errors: list[str] = []
        self._tracer = tracer
        self._pace = pace
        self._trace_this = False
        self._parity: dict[str, bool] = {}

    def begin(self, kind: str) -> None:
        """Start one workload operation of ``kind``."""
        self.attempted += 1
        if self._tracer is not None:
            self._trace_this = not self._parity.get(kind, False)
            self._parity[kind] = self._trace_this
            self.traced_ops += self._trace_this

    def time(self, kind: str | None, fn: Callable,
             stratum: int | None = None):
        """Run ``fn`` as one timed step; returns ``(result, seconds)``.
        ``kind`` names the latency list the step belongs to (None: the
        step is timed and traced but not a latency sample); ``stratum``
        names the sample's class, e.g. a document size (see :meth:`p50`)."""
        start = time.perf_counter()
        if self._trace_this:
            with self._tracer.root():
                result = fn()
        else:
            result = fn()
        elapsed = time.perf_counter() - start
        if kind is not None:
            if stratum is not None:
                self.strata.setdefault((kind, stratum), []).append(
                    len(self.samples[kind]))
            self.samples[kind].append(elapsed)
            self.stamps[kind].append(start + elapsed)
        if self._tracer is not None:
            split = self.traced if self._trace_this else self.untraced
            split.setdefault(kind or "other", []).append(elapsed)
        if self._pace is not None:
            self._pace.tick()
        return result, elapsed

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def guarded(self, kind: str, op: Callable[[], str | None]) -> None:
        """Run one operation of ``kind``; a returned message or an
        exception is a failed operation (recorded, and the loop goes on)."""
        self.begin(kind)
        try:
            problem = op()
        except Exception:  # the driver must outlive one bad operation
            problem = traceback.format_exc(limit=4)
        if problem:
            self.fail(problem)

    def p50(self, kind: str) -> float:
        """Median seconds of ``kind``.  Where the samples are stratified,
        the geometric mean of the median of each stratum: a median over
        classes 16x apart falls between two of them and jumps with a
        few samples more or less, a median within each class does not."""
        samples = self.samples[kind]
        medians = [percentile([samples[i] for i in indices], 0.5)
                   for (of, _), indices in sorted(self.strata.items())
                   if of == kind]
        if not medians:
            return percentile(self.samples[kind], 0.5)
        return math.exp(sum(map(math.log, medians)) / len(medians))

    def rescale(self, pace: Pace) -> None:
        """Scale every latency sample to the reference host speed by the
        probes around it (see ``pace.py``)."""
        for kind, values in self.samples.items():
            self.samples[kind] = [
                value * pace.scale_at(moment)
                for value, moment in zip(values, self.stamps[kind])]

    def merge(self, other: "Recorder") -> None:
        for (kind, stratum), indices in other.strata.items():
            offset = len(self.samples[kind])
            self.strata.setdefault((kind, stratum), []).extend(
                i + offset for i in indices)
        for kind, values in other.samples.items():
            self.samples[kind].extend(values)
            self.stamps[kind].extend(other.stamps[kind])
        for mine, theirs in ((self.traced, other.traced),
                             (self.untraced, other.untraced)):
            for kind, values in theirs.items():
                mine.setdefault(kind, []).extend(values)
        self.attempted += other.attempted
        self.failed += other.failed
        self.traced_ops += other.traced_ops
        self.errors.extend(other.errors)


class Workload:
    """Set-up, one timed window of operations, and the output checks."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        #: host-speed probes; run.py swaps in one per phase
        self.pace = Pace()
        #: seconds per create (a new document's open plus first save)
        self.creates: list[float] = []
        self.elapsed_s = 0.0
        self.reference_s = 0.0
        #: counter deltas over the window, and over its first
        #: ``COUNT_PREFIX`` operations (exactly repeatable in process)
        self.window_counts: dict[str, float] = {}
        self.prefix_counts: dict[str, float] = {}
        self.prefix_ops = 0
        self.server_peak_rss_mb: float | None = None
        #: stored ciphertext and plaintext chars over every document,
        #: counted by :meth:`check` at the end of the run
        self.stored_chars = 0
        self.plain_chars = 0

    #: operations whose counter deltas are reported (None: whole window)
    COUNT_PREFIX: int | None = None
    #: set-ups per run; ``setup_s`` is their median
    SETUPS = 5

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, tracer=None) -> Recorder:
        raise NotImplementedError

    def check(self) -> list[str]:
        """Every output check; returns the problems found."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up acquired."""

    # -- shared pieces -----------------------------------------------------

    def _window(self, seconds: float,
                loop: Callable[[float], None]) -> None:
        """Run ``loop(deadline)`` as the measured window, with counters.
        ``elapsed_s`` leaves out the time the pace probes took."""
        before = _snapshot()
        self._before = before
        self.pace.force()
        probing = self.pace.wall_s
        start = time.perf_counter()
        loop(start + seconds)
        end = time.perf_counter()
        probed = self.pace.wall_s - probing
        self.pace.force()  # neighbours for the window's last samples
        self.elapsed_s = end - start - probed
        #: the window in reference seconds, probes left out
        self.reference_s = (end - start) * self.pace.mean_scale(start, end) \
            - probed * self.pace.time_scale()
        self.window_counts = _diff(_snapshot(), before)

    def _count_prefix(self, recorder: Recorder) -> None:
        """Snapshot counters once the first ``COUNT_PREFIX`` ops are done."""
        if self.COUNT_PREFIX is not None and not self.prefix_counts \
                and recorder.attempted == self.COUNT_PREFIX:
            self.prefix_counts = _diff(_snapshot(), self._before)
            self.prefix_ops = recorder.attempted

    @staticmethod
    def _leaks(taps: list[SentinelTap]) -> list[str]:
        return [
            f"plaintext sentinel {word!r} seen {seen} times on the wire"
            for tap in taps for word, seen in tap.seen.items() if seen
        ]


# -- edit-large ---------------------------------------------------------------


class EditLarge(Workload):
    """One user types into one large RPC document, in process."""

    name = "edit-large"
    DOC_CHARS = 100_000
    BURST = 16
    #: chance that a keystroke is a 2-char backspace: one in three
    #: deletes as many chars as the other two type, so the document
    #: stays near ``DOC_CHARS`` and the window's saves all see the same
    #: size (at 0.2 it grew ~6 chars a save, and save time with it, so
    #: a run's figures depended on how many saves the host managed)
    BACKSPACE = 1 / 3
    DOC_ID = "large-doc"
    #: saves between two cold opens of the document on another device
    READ_EVERY = 100
    COUNT_PREFIX = 400

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.rng = rng
        self.sentinels = sentinels_for(self.seed)
        self.text = TextSource(rng).text(self.DOC_CHARS, self.sentinels)
        self.password = f"pw-{self.seed}"
        self.server = registry.make_server("gdocs")
        writer = self._session()
        start = time.perf_counter()
        writer.open()
        writer.type_text(0, self.text)
        outcome = writer.save()
        self.creates.append(time.perf_counter() - start)
        if not outcome.ok:
            raise RuntimeError(f"seeding the large document failed: "
                               f"{outcome.error}")
        writer.close()

    def _session(self) -> PrivateEditingSession:
        return PrivateEditingSession(
            self.DOC_ID, self.password, server=self.server, scheme="rpc",
            block_chars=8, verify_acks=True,
            retry_policy=RetryPolicy(seed=self.seed),
            index_factory=seeded_index(self.seed),
        )

    def run(self, seconds: float, tracer=None) -> Recorder:
        recorder = Recorder(tracer, self.pace)
        self.tap = SentinelTap(self.sentinels)
        self.session = session = self._session()
        session.channel.transport.add_tap(self.tap)
        rng = self.rng
        model = self.text

        def open_cold(opener: PrivateEditingSession) -> str | None:
            text, _ = recorder.time("open", opener.open)
            return None if text == model else "open returned wrong text"

        def read_elsewhere() -> str | None:
            """The same user opens the document cold on another device
            (a fresh session: key derivation, fetch, full decrypt)."""
            reader = self._session()
            reader.channel.transport.add_tap(self.tap)
            return open_cold(reader)

        def loop(deadline: float) -> None:
            nonlocal model
            recorder.guarded("open", lambda: open_cold(session))
            cursor = rng.randrange(len(model) + 1)
            saves = 0
            while time.perf_counter() < deadline:
                if rng.random() < 0.05:
                    cursor = rng.randrange(len(model) + 1)
                for _ in range(self.BURST):
                    if cursor >= 2 and rng.random() < self.BACKSPACE:
                        session.delete_text(cursor - 2, 2)
                        model = model[:cursor - 2] + model[cursor:]
                        cursor -= 2
                    else:
                        char = rng.choice(_LETTERS + " ")
                        session.type_text(cursor, char)
                        model = model[:cursor] + char + model[cursor:]
                        cursor += 1
                recorder.guarded("save", self._save_step(recorder))
                self._count_prefix(recorder)
                saves += 1
                if saves % self.READ_EVERY == 0:
                    recorder.guarded("open", read_elsewhere)
                    self._count_prefix(recorder)

        self._window(seconds, loop)
        self.model = model
        return recorder

    def _save_step(self, recorder: Recorder):
        def step() -> str | None:
            outcome, _ = recorder.time("save", self.session.save)
            return None if outcome.ok else f"save failed: {outcome.error}"
        return step

    def check(self) -> list[str]:
        problems = []
        stored = self.session.server_view()
        if self.session.text != self.model:
            problems.append("editor text diverged from the typed text")
        if not decrypts_to(stored, self.password, "rpc", self.model):
            problems.append("stored ciphertext does not decrypt to the "
                            "typed text")
        problems += self._leaks([self.tap])
        if self.window_counts["extension.ack_hash_mismatches"]:
            problems.append("ack hash mismatches on a fault-free run")
        self.stored_chars, self.plain_chars = len(stored), len(self.model)
        return problems


# -- workspace-cold -----------------------------------------------------------


class _TappedServer(InProcessTransport):
    """The in-process server behind one transport that every workspace
    session and the catalog channel share, so one tap sees all traffic.

    Attribute reads fall through to the server, as
    ``registry.server_view`` expects of a server."""

    def __getattr__(self, name: str):
        return getattr(self.server, name)


class WorkspaceCold(Workload):
    """A tenant workspace with encrypted search, in process."""

    name = "workspace-cold"
    DOC_SIZES = (2_000, 4_000, 8_000, 16_000, 32_000)
    DOCS = 40
    CREATE_CHARS = 8_000
    SECRET = "tenant-secret"
    #: one shuffled cycle of the 50/35/15 open/search/create mix
    CYCLE = ("open",) * 10 + ("search",) * 7 + ("create",) * 3
    COUNT_PREFIX = 100
    SETUPS = 3

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.rng = rng
        self.texts = TextSource(rng)
        self.sentinels = sentinels_for(self.seed)
        self.server = registry.make_server("gdocs", catalog=True)
        self.transport = _TappedServer(self.server)
        self.tap = SentinelTap(self.sentinels)
        self.transport.add_tap(self.tap)
        self.model: dict[str, str] = {}
        self.words: dict[str, set[str]] = {}
        #: corpus document -> its seeded size, the stratum of its samples
        self.size_class: dict[str, int] = {}
        writer = self._workspace()
        for i in range(self.DOCS):
            doc_id = f"doc-{i:02d}"
            size = self.size_class[doc_id] = \
                self.DOC_SIZES[i % len(self.DOC_SIZES)]
            text = self.texts.text(size, self.sentinels)
            writer.open(doc_id)
            writer.type_text(doc_id, 0, text)
            if not writer.save(doc_id).ok:
                raise RuntimeError(f"seeding {doc_id} failed")
            writer.close(doc_id)
            self._remember(doc_id, text)
            self.pace.tick()
        self.corpus = sorted(self.model)

    def _workspace(self) -> Workspace:
        return Workspace(self.SECRET, server=self.transport,
                         index_factory=seeded_index(self.seed))

    def _remember(self, doc_id: str, text: str) -> None:
        self.model[doc_id] = text
        self.words[doc_id] = set(extract_words(text))

    def _open_order(self, rng: random.Random) -> list[str]:
        """Every corpus document once, in a random order of same-size
        pairs, so a traced run's traced and untraced opens (alternate
        ones) cover the same sizes."""
        by_size: dict[int, list[str]] = {}
        for doc_id in self.corpus:
            by_size.setdefault(self.size_class[doc_id], []).append(doc_id)
        pairs = []
        for docs in by_size.values():
            rng.shuffle(docs)
            pairs += [docs[j:j + 2] for j in range(0, len(docs), 2)]
        rng.shuffle(pairs)
        return [doc_id for pair in pairs for doc_id in pair]

    def run(self, seconds: float, tracer=None) -> Recorder:
        recorder = Recorder(tracer, self.pace)
        self.user = user = self._workspace()
        rng = self.rng
        order: list[str] = []
        created = 0

        def open_edit_close() -> str | None:
            if not order:
                order.extend(self._open_order(rng))
            doc_id = order.pop()
            size = self.size_class[doc_id]
            text, _ = recorder.time("open", lambda: user.open(doc_id), size)
            if text != self.model[doc_id]:
                return f"open of {doc_id} returned wrong text"
            pos = rng.randrange(len(text) + 1)
            insert = f" {self.texts.word()} "
            user.type_text(doc_id, pos, insert)
            self._remember(doc_id, text[:pos] + insert + text[pos:])
            outcome, _ = recorder.time("save", lambda: user.save(doc_id),
                                       size)
            recorder.time(None, lambda: user.close(doc_id))
            return None if outcome.ok else f"save failed: {outcome.error}"

        def search() -> str | None:
            pick = rng.random()
            if pick < 1 / 3:
                word = rng.choice(COMMON_WORDS)
            elif pick < 2 / 3:
                word = self.texts.rare[rng.randrange(len(self.texts.rare))]
            else:
                word = f"absent{rng.randrange(10**6)}"
            found, _ = recorder.time("search", lambda: user.search(word))
            expect = sorted(d for d, words in self.words.items()
                            if word in words)
            return None if found == expect else \
                f"search {word!r} returned {found}, expected {expect}"

        def create() -> str | None:
            nonlocal created
            created += 1
            doc_id = f"new-{created:04d}"
            text = self.texts.text(self.CREATE_CHARS, self.sentinels)
            _, opened = recorder.time(None, lambda: user.open(doc_id))
            user.type_text(doc_id, 0, text)
            # a new document's first save is part of its create, not a
            # sample of the edit autosaves the save metrics describe
            outcome, saved = recorder.time(None, lambda: user.save(doc_id))
            recorder.time(None, lambda: user.close(doc_id))
            self.creates.append(opened + saved)
            self._remember(doc_id, text)
            return None if outcome.ok else f"create failed: {outcome.error}"

        ops = {"open": open_edit_close, "search": search, "create": create}

        def loop(deadline: float) -> None:
            while True:
                cycle = list(self.CYCLE)
                rng.shuffle(cycle)
                for kind in cycle:
                    if time.perf_counter() >= deadline:
                        return
                    recorder.guarded(kind, ops[kind])
                    self._count_prefix(recorder)

        self._window(seconds, loop)
        return recorder

    def check(self) -> list[str]:
        problems = []
        for doc_id, text in sorted(self.model.items()):
            stored = registry.server_view("gdocs", self.server, doc_id)
            self.stored_chars += len(stored)
            self.plain_chars += len(text)
            if not decrypts_to(stored, self.user.password_for(doc_id),
                               "recb", text):
                problems.append(f"{doc_id}: stored ciphertext does not "
                                f"decrypt to the typed text")
        listed = self.user.list_docs()
        if listed != sorted(self.model):
            problems.append(f"catalog lists {len(listed)} docs, "
                            f"{len(self.model)} exist")
        for word in self.sentinels:  # in nearly every document
            expect = sorted(d for d, words in self.words.items()
                            if word in words)
            if self.user.search(word) != expect:
                problems.append(f"search {word!r} does not return the "
                                f"{len(expect)} documents holding it")
        if self.user.alerts:
            problems.append(f"audit alerts: {self.user.alerts[:3]}")
        problems += self._leaks([self.tap])
        if self.window_counts["extension.ack_hash_mismatches"]:
            problems.append("ack hash mismatches on a fault-free run")
        return problems


# -- fleet-socket -------------------------------------------------------------


#: every fault kind the retry path recovers from without a failed save
#: (request truncation and corruption are answered with a terminal 400)
RECOVERABLE_FAULTS = ("drop", "blackhole", "delay", "dup", "reorder",
                      "http_5xx", "http_429")


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _peak_rss_mb(pid: int | str) -> float:
    """``VmHWM`` of a process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


class FleetSocket(Workload):
    """64 small documents over TCP to a server in its own process."""

    name = "fleet-socket"
    SESSIONS = 64
    DOC_CHARS = 2_000
    THREADS = 2
    #: edit+save rounds between a session's cold reopens of its document
    REOPEN_EVERY = 20
    HOST = "127.0.0.1"

    def setup(self) -> None:
        self.proc = None
        self.pool = None
        self.sentinels = sentinels_for(self.seed)
        self._start_server()
        self.pool = ConnectionPool(self.HOST, self.port, size=2, window=64,
                                   timeout=30.0)
        texts = TextSource(random.Random(self.seed))
        self.model: list[str] = []
        for i in range(self.SESSIONS):
            text = texts.text(self.DOC_CHARS, self.sentinels[i % 3:i % 3 + 1])
            writer = self._session(i)
            start = time.perf_counter()
            writer.open()
            writer.type_text(0, text)
            outcome = writer.save()
            self.creates.append(time.perf_counter() - start)
            if not outcome.ok:
                raise RuntimeError(f"seeding fleet doc {i} failed")
            writer.close()
            self.model.append(text)
            self.pace.tick()

    def _start_server(self) -> None:
        """A fresh ``repro serve`` process, ready once it answers a ping
        (its banner goes to a pipe that is block-buffered)."""
        self.port = _free_port()
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", self.HOST,
             "--port", str(self.port), "--shards", "2",
             "--service-time", "0"],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 30
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with "
                                   f"{self.proc.returncode}")
            probe = AsyncioSocketTransport(self.HOST, self.port,
                                           pool_size=1, timeout=2.0)
            try:
                if probe.ping():
                    return
            except NetworkTimeoutError:
                if time.monotonic() > deadline:
                    raise RuntimeError("repro serve did not answer a ping "
                                       "within 30 s") from None
                self.pace.tick()
                time.sleep(0.05)
            finally:
                probe.close()

    def _session(self, i: int, faults=None) -> PrivateEditingSession:
        return PrivateEditingSession(
            f"fleet-{i:02d}", f"pw-{self.seed}-{i}", faults=faults,
            retry_policy=RetryPolicy(seed=self.seed * 1000 + i),
            verify_acks=True,
            transport=AsyncioSocketTransport(self.HOST, self.port,
                                             pool=self.pool),
            index_factory=seeded_index(self.seed + i),
        )

    def run(self, seconds: float, tracer=None) -> Recorder:
        self.plans = [
            FaultPlan.uniform(0.01, seed=self.seed * 1000 + i,
                              kinds=RECOVERABLE_FAULTS, match=updates_only)
            for i in range(self.SESSIONS)
        ]
        self.sessions: list[PrivateEditingSession | None] = \
            [None] * self.SESSIONS
        self.taps = [SentinelTap(self.sentinels)
                     for _ in range(self.SESSIONS)]
        texts = TextSource(random.Random(self.seed + 1), tail=200)
        recorders = [Recorder(tracer, self.pace) for _ in range(self.THREADS)]
        errors: list[str] = []

        def drive(worker: int, deadline: float) -> None:
            recorder = recorders[worker]
            mine = range(worker, self.SESSIONS, self.THREADS)
            rng = random.Random(self.seed * 31 + worker)
            words = [texts.word() for _ in range(512)]
            rounds = 0
            try:
                while time.perf_counter() < deadline:
                    for i in mine:
                        if time.perf_counter() >= deadline:
                            return
                        # reopens are staggered to spread over the window
                        if self.sessions[i] is None or \
                                (rounds + i) % self.REOPEN_EVERY == 0:
                            recorder.guarded(
                                "open", self._open_step(recorder, i))
                        self._edit(i, rng, words)
                        recorder.guarded("save",
                                         self._save_step(recorder, i))
                    rounds += 1
            except Exception:  # reported as a failed operation
                errors.append(traceback.format_exc(limit=4))

        def loop(deadline: float) -> None:
            threads = [threading.Thread(target=drive, args=(w, deadline),
                                        name=f"fleet-driver-{w}")
                       for w in range(self.THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        recorder = Recorder(tracer, self.pace)
        self._window(seconds, loop)
        for part in recorders:
            recorder.merge(part)
        for message in errors:
            recorder.fail(message)
        self._settle(recorder)
        return recorder

    def _open_step(self, recorder: Recorder, i: int):
        """Close session ``i`` (flushing it) and open its document cold
        in a fresh session: a user coming back to the document."""
        def step() -> str | None:
            if self.sessions[i] is not None:
                self.sessions[i].close()
            session = self.sessions[i] = self._session(i, self.plans[i])
            session.channel.transport.add_tap(self.taps[i])
            text, _ = recorder.time("open", session.open)
            return None if text == self.model[i] else \
                f"fleet-{i:02d}: open returned wrong text"
        return step

    def _edit(self, i: int, rng: random.Random, words: list[str]) -> None:
        session, text = self.sessions[i], self.model[i]
        pos = rng.randrange(len(text) + 1)
        insert = " " + rng.choice(words)
        session.type_text(pos, insert)
        text = text[:pos] + insert + text[pos:]
        if len(text) > 16 and rng.random() < 0.3:
            cut = rng.randint(1, 4)
            at = rng.randrange(len(text) - cut)
            session.delete_text(at, cut)
            text = text[:at] + text[at + cut:]
        self.model[i] = text

    def _save_step(self, recorder: Recorder, i: int):
        def step() -> str | None:
            outcome, _ = recorder.time("save", self.sessions[i].save)
            return None if outcome.ok else \
                f"fleet-{i:02d}: save failed: {outcome.error}"
        return step

    def _settle(self, recorder: Recorder) -> None:
        """Stop injecting faults and land every document's last edits
        (outside the measured window)."""
        for i, session in enumerate(self.sessions):
            self.plans[i].quiesce()
            for _ in range(4):
                outcome = session.save()
                if outcome.ok and not outcome.conflict \
                        and not outcome.resynced:
                    break
            else:  # a check failure, not a failed user operation
                recorder.errors.append(f"fleet-{i:02d}: did not settle")

    def check(self) -> list[str]:
        problems = []
        for i, session in enumerate(self.sessions):
            stored = session.server_view()
            self.stored_chars += len(stored)
            self.plain_chars += len(self.model[i])
            if session.text != self.model[i]:
                problems.append(f"fleet-{i:02d}: editor text diverged")
            if not decrypts_to(stored, f"pw-{self.seed}-{i}", "recb",
                               self.model[i]):
                problems.append(f"fleet-{i:02d}: stored ciphertext does not "
                                f"decrypt to the typed text")
        problems += self._leaks(self.taps)
        self.server_peak_rss_mb = _peak_rss_mb(self.proc.pid)
        return problems

    def close(self) -> None:
        """Close the pool, then stop the server and wait for it."""
        if self.pool is not None:
            self.pool.close()
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


WORKLOADS = {cls.name: cls for cls in (EditLarge, WorkspaceCold, FleetSocket)}
