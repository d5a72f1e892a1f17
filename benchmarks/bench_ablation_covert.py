"""Ablation C — covert-channel bandwidth vs countermeasures (SVI-B).

A malicious client (adversary-supplied, per the paper's stronger threat
model) smuggles symbols through properties of its encrypted traffic.
For each channel we drive the full stack — malicious client, mediating
extension, simulated server — and measure the server-side decoder's
accuracy, then the effective bits per update, under each mediator
configuration.

Expected shape: the delta-shape channel is perfect with no mitigation
and survives *structural* canonicalization (a delete-and-reinsert of
identical text is canonical), but is destroyed by recomputing deltas
from document versions — exactly the two mitigation tiers SVI-B
sketches.  The timing channel dies under random delays.  The length
channel survives everything implemented (the paper, likewise, only
gestures at padding the document itself).
"""

from __future__ import annotations

import math
import random

import pytest

from conftest import register_table
from repro.bench import render_table
from repro.client.malicious import ShapeLeakClient
from repro.core.delta import Delete, Delta
from repro.crypto.random import DeterministicRandomSource
from repro.encoding.wire import RECORD_CHARS
from repro.extension import Countermeasures, GDocsExtension, PasswordVault
from repro.net.channel import Channel
from repro.security.adversary import EavesdropperTap
from repro.security.covert import ChannelReport, TimingChannel
from repro.services.gdocs import protocol
from repro.services.gdocs.server import GDocsServer
from repro.workloads.diff import derive_delta

SYMBOLS = [3, 7, 1, 9, 5, 2, 8, 4]
BITS_PER_SYMBOL = math.log2(16)


def _stack(countermeasures, seed):
    server = GDocsServer()
    channel = Channel(server)
    extension = GDocsExtension(
        PasswordVault({"doc": "pw"}),
        rng=DeterministicRandomSource(seed),
        countermeasures=countermeasures,
        clock=channel.clock,
    )
    channel.set_mediator(extension)
    client = ShapeLeakClient(channel, "doc")
    client.open()
    client.type_text(0, "y" * 400)
    client.save()
    return channel, client


def _observed_deleted_records(tap):
    for exchange in reversed(tap.exchanges):
        form = exchange.request.form if exchange.request.body else {}
        if protocol.F_DELTA in form:
            cdelta = Delta.parse(form[protocol.F_DELTA])
            return sum(
                op.count for op in cdelta.ops if isinstance(op, Delete)
            ) // RECORD_CHARS
    return 0


def run_shape_channel(countermeasures, recompute: bool,
                      seed: int) -> ChannelReport:
    """Drive the shape channel; optionally apply the paper's 'recompute
    deltas from versions' mitigation inside the measurement loop."""
    channel, client = _stack(countermeasures, seed)
    tap = EavesdropperTap()
    channel.add_tap(tap)

    def mediate(delta_text, base_text):
        if not recompute:
            return delta_text
        delta = Delta.parse(delta_text)
        return derive_delta(base_text, delta.apply(base_text)).serialize()

    # Calibrate the noise floor with symbol 0.
    def send(symbol):
        base = client.editor.synced_text
        client.queue_symbol(symbol)
        client.type_text(len(client.editor.text), "a")
        # Intercept the shaped delta before the extension if recomputing.
        if recompute:
            shaped = client._channel_enc.encode(
                symbol, base, client.editor.pending_delta()
            )
            clean = mediate(shaped.serialize(), base)
            client._pending_symbols.clear()
            request = protocol.delta_save_request(
                client.doc_id, client._sid, client._rev, clean
            )
            channel.send(request)
            client._rev += 1
            client.editor.mark_synced()
        else:
            client.save()
        return _observed_deleted_records(tap)

    floor = send(0)
    correct = 0
    for symbol in SYMBOLS:
        decoded = max(0, send(symbol) - floor)
        if decoded == symbol:
            correct += 1
    return ChannelReport(len(SYMBOLS), correct, BITS_PER_SYMBOL)


def run_timing_channel(countermeasures, seed: int) -> ChannelReport:
    channel, client = _stack(countermeasures, seed)
    timing = TimingChannel()
    bits = [1, 0, 1, 1, 0, 0, 1, 0]
    # Baseline gap without an encoded bit:
    t0 = channel.clock.now()
    client.type_text(0, "z")
    client.save()
    base_gap = channel.clock.now() - t0
    correct = 0
    for bit in bits:
        start = channel.clock.now()
        channel.clock.advance(timing.encode_delay(bit))
        client.type_text(0, "z")
        client.save()
        gap = channel.clock.now() - start
        if timing.decode(gap, base_gap) == bit:
            correct += 1
    return ChannelReport(len(bits), correct, 1.0)


@pytest.fixture(scope="module")
def ablation():
    configs = [
        ("none (paper default)", Countermeasures.none(), False),
        ("canonicalize deltas", Countermeasures(canonicalize_deltas=True),
         False),
        ("recompute from versions", Countermeasures.none(), True),
    ]
    rows = []
    results = {}
    for idx, (label, cm, recompute) in enumerate(configs):
        report = run_shape_channel(cm, recompute, seed=idx + 1)
        results[("shape", label)] = report
        rows.append(["delta shape", label,
                     f"{report.accuracy * 100:.0f}%",
                     f"{report.effective_bits_per_update:.2f}"])
    for idx, (label, cm) in enumerate([
        ("none (paper default)", Countermeasures.none()),
        ("random delays",
         Countermeasures(random_delay=True, delay_max_seconds=1.0,
                         rng=random.Random(3))),
    ]):
        report = run_timing_channel(cm, seed=10 + idx)
        results[("timing", label)] = report
        rows.append(["timing", label,
                     f"{report.accuracy * 100:.0f}%",
                     f"{report.effective_bits_per_update:.2f}"])
    register_table("ablation_covert", render_table(
        ["channel", "countermeasure", "decoder accuracy",
         "effective bits/update"],
        rows,
        title="Ablation C - covert-channel bandwidth vs countermeasures",
    ))
    return results


class TestAblationCovert:
    def test_shape_channel_throughput(self, benchmark, ablation):
        benchmark(lambda: run_shape_channel(Countermeasures.none(), False,
                                            seed=99))

    def test_shape_channel_perfect_without_mitigation(self, ablation):
        assert ablation[("shape", "none (paper default)")].accuracy == 1.0

    def test_canonicalization_insufficient(self, ablation):
        """Structural canonicalization alone leaves the channel open —
        the honest negative result motivating trusted recompute."""
        assert ablation[("shape", "canonicalize deltas")].accuracy > 0.5

    def test_recompute_kills_shape_channel(self, ablation):
        report = ablation[("shape", "recompute from versions")]
        assert report.accuracy <= 0.25
        assert report.effective_bits_per_update == 0.0

    def test_random_delay_degrades_timing_channel(self, ablation):
        clean = ablation[("timing", "none (paper default)")]
        jittered = ablation[("timing", "random delays")]
        assert clean.accuracy == 1.0
        assert jittered.accuracy < clean.accuracy
