"""Covert channels through the full stack, with and without
countermeasures (SVI-B / ablation C)."""

import pytest

from repro.client.malicious import LengthLeakClient, ShapeLeakClient
from repro.crypto.random import DeterministicRandomSource
from repro.extension import Countermeasures, GDocsExtension, PasswordVault
from repro.net.channel import Channel
from repro.security.adversary import EavesdropperTap
from repro.security.covert import DeltaShapeChannel
from repro.services.gdocs import protocol
from repro.services.gdocs.server import GDocsServer


def build_stack(client_cls, countermeasures=None, seed=1):
    server = GDocsServer()
    channel = Channel(server)
    extension = GDocsExtension(
        PasswordVault({"doc": "pw"}),
        rng=DeterministicRandomSource(seed),
        countermeasures=countermeasures,
        clock=channel.clock,
    )
    channel.set_mediator(extension)
    client = client_cls(channel, "doc")
    return server, channel, client


def observed_delta_deletions(tap):
    """What the adversary reads off the last delta save's cdelta."""
    from repro.core.delta import Delete, Delta
    for exchange in reversed(tap.exchanges):
        form = exchange.request.form if exchange.request.body else {}
        if protocol.F_DELTA in form:
            cdelta = Delta.parse(form[protocol.F_DELTA])
            return sum(
                op.count for op in cdelta.ops if isinstance(op, Delete)
            )
    return 0


class TestDeltaShapeChannel:
    def _run(self, symbol, countermeasures, seed):
        _, channel, client = build_stack(
            ShapeLeakClient, countermeasures, seed
        )
        tap = EavesdropperTap()
        channel.add_tap(tap)
        client.open()
        client.type_text(0, "x" * 300)
        client.save()
        # calibrate the honest noise floor with symbol 0
        client.queue_symbol(0)
        client.type_text(300, "a")
        client.save()
        floor = observed_delta_deletions(tap)
        # now send the real symbol
        client.queue_symbol(symbol)
        client.type_text(301, "b")
        client.save()
        from repro.encoding.wire import RECORD_CHARS
        observed = observed_delta_deletions(tap)
        decoded = max(0, (observed - floor) // RECORD_CHARS)
        return decoded

    @pytest.mark.parametrize("symbol", [1, 4, 9])
    def test_leaks_without_countermeasures(self, symbol):
        assert self._run(symbol, None, seed=symbol) == symbol

    @pytest.mark.parametrize("symbol", [1, 4, 9])
    def test_canonicalization_alone_does_not_stop_it(self, symbol):
        """Structural canonicalization can't remove a delete-reinsert of
        identical text (it doesn't know the document) — the channel
        survives, motivating the recompute-from-versions countermeasure."""
        cm = Countermeasures(canonicalize_deltas=True)
        assert self._run(symbol, cm, seed=10 + symbol) == symbol


class TestLengthChannel:
    def test_bits_ride_record_count(self):
        server, channel, client = build_stack(LengthLeakClient, seed=20)
        client.open()
        client.type_text(0, "base document text")
        client.save()
        lengths = {}
        for bit in (1, 0, 1, 1, 0):
            client.queue_bit(bit)
            client.save()
            lengths.setdefault(bit, set()).add(
                len(server.store.get("doc").content)
            )
        # Each bit value maps to a distinct, consistent stored length —
        # a clean 1-bit-per-save channel (the paper concedes this one
        # and only sketches mitigations).
        assert lengths[0] != lengths[1]
        assert len(lengths[0]) == 1 and len(lengths[1]) == 1


class TestTimingChannel:
    def test_random_delay_jitters_timing(self):
        """With random delays on, save timing no longer cleanly encodes
        the bit (the jitter is the same order as the signal)."""
        def run(countermeasures, seed):
            _, channel, client = build_stack(
                ShapeLeakClient, countermeasures, seed
            )
            client.open()
            client.type_text(0, "doc")
            client.save()
            t0 = channel.clock.now()
            client.type_text(3, "x")
            client.save()
            return channel.clock.now() - t0

        import random as _random
        quiet = {run(None, s) for s in range(3)}
        noisy = {
            run(Countermeasures(random_delay=True, delay_max_seconds=0.5,
                                rng=_random.Random(s)), s)
            for s in range(3)
        }
        assert max(quiet) - min(quiet) < 1e-9  # deterministic w/o delays
        assert max(noisy) - min(noisy) > 0.01  # jittered with them


class TestPaddingCountermeasure:
    def test_pad_field_hides_body_size(self):
        cm = Countermeasures(pad_requests=True)
        sizes = set()
        for seed in range(4):
            cm_seeded = Countermeasures(pad_requests=True)
            cm_seeded.rng.seed(seed)
            _, channel, client = build_stack(
                ShapeLeakClient, cm_seeded, 30 + seed
            )
            tap = EavesdropperTap()
            channel.add_tap(tap)
            client.open()
            client.type_text(0, "same text every time")
            client.save()
            sizes.add(tap.exchanges[-1].request.wire_bytes)
        assert len(sizes) > 1  # same plaintext, different wire sizes
