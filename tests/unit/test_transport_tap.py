"""The transport tap seam: passive observation at the wire boundary.

``Transport.add_tap`` mirrors ``Channel.add_tap`` one layer down — the
same :class:`~repro.security.EavesdropperTap` that models the paper's
honest-but-curious network observer now attaches to real socket
traffic.  The load-bearing assertions: the tap really sees every frame
of a live socket session (the threat is modelled, not mocked), and
what it sees contains no plaintext (the paper's confidentiality claim
at the transport layer).
"""

from __future__ import annotations

import pytest

from repro.extension.session import PrivateEditingSession
from repro.net.server import ServerThread
from repro.net import channel
from repro.net.transport import (
    AsyncioSocketTransport,
    Exchange,
    InProcessTransport,
)
from repro.security import EavesdropperTap
from repro.services import registry

SECRET = "attack at dawn kilimanjaro"


@pytest.fixture(scope="module")
def served():
    with ServerThread(shards=2) as (host, port):
        yield host, port


def test_tap_observes_real_socket_frames(served):
    host, port = served
    transport = AsyncioSocketTransport(host, port, service="gdocs")
    tap = EavesdropperTap()
    transport.add_tap(tap)
    assert transport.taps == (tap,)
    try:
        session = PrivateEditingSession("tapped-doc", "pw",
                                        transport=transport,
                                        service="gdocs")
        session.open()
        session.type_text(0, SECRET)
        assert session.save().ok
        session.close()
    finally:
        transport.close()
    # the tap saw the live traffic: at least open + save round trips
    assert len(tap.exchanges) >= 2
    assert all(isinstance(e, Exchange) for e in tap.exchanges)
    # ...and classified a real update out of it
    assert any(u.kind in ("full", "delta")
               for u in tap.observed_updates())
    # ...but never a byte of plaintext (the whole point)
    assert tap.plaintext_sightings(SECRET) == 0


def test_tap_observes_in_process_frames():
    transport = InProcessTransport(registry.make_server("gdocs"))
    tap = EavesdropperTap()
    transport.add_tap(tap)
    session = PrivateEditingSession("doc", "pw", transport=transport,
                                    service="gdocs")
    session.open()
    session.type_text(0, SECRET)
    assert session.save().ok
    assert len(tap.exchanges) >= 2
    assert tap.plaintext_sightings(SECRET) == 0


def test_wire_exchange_quacks_like_a_channel_exchange():
    """A transport's taps and a channel's taps receive one type, so
    every EavesdropperTap reader works on both."""
    assert channel.Exchange is Exchange
    for field in ("request", "response", "sent_at", "latency"):
        assert field in Exchange.__dataclass_fields__, field


def test_taps_default_empty_and_accumulate():
    transport = InProcessTransport(registry.make_server("gdocs"))
    assert transport.taps == ()
    first, second = EavesdropperTap(), EavesdropperTap()
    transport.add_tap(first)
    transport.add_tap(second)
    assert transport.taps == (first, second)
