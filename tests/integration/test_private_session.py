"""End-to-end private editing sessions (SIV-C's user story)."""

import pytest

from repro.crypto.random import DeterministicRandomSource
from repro.encoding.formenc import encode_form
from repro.encoding.wire import looks_encrypted
from repro.extension import PrivateEditingSession
from repro.net.channel import Exchange
from repro.net.http import HttpRequest, HttpResponse
from repro.net.latency import WAN_2011
from repro.security.adversary import EavesdropperTap, request_sightings

SECRET = "Project Aurora launches May 3rd; budget 4.2M."


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
@pytest.mark.parametrize("block_chars", [1, 8])
class TestConfidentiality:
    def test_server_never_sees_plaintext(self, scheme, block_chars):
        session = PrivateEditingSession(
            "doc", "pw", scheme=scheme, block_chars=block_chars,
            rng=DeterministicRandomSource(1),
        )
        tap = EavesdropperTap()
        session.channel.add_tap(tap)
        session.open()
        session.type_text(0, SECRET)
        session.save()
        session.type_text(8, "Borealis, formerly ")
        session.save()
        session.delete_text(0, 8)
        session.save()
        session.close()

        stored = session.server_view()
        assert looks_encrypted(stored)
        for needle in ("Aurora", "Borealis", "May 3rd", "4.2M"):
            assert needle not in stored
            assert tap.plaintext_sightings(needle) == 0

    def test_user_sees_consistent_plaintext(self, scheme, block_chars):
        session = PrivateEditingSession(
            "doc", "pw", scheme=scheme, block_chars=block_chars,
            rng=DeterministicRandomSource(2),
        )
        session.open()
        session.type_text(0, SECRET)
        session.save()
        session.type_text(len(SECRET), " (draft)")
        session.save()
        assert session.text == SECRET + " (draft)"
        assert session.complaints == []


class TestLeakMatcher:
    """One matcher for plaintext on the wire, raw or form-encoded: a
    phrase with a space travels as ``zebrafish+manifesto`` in a form
    body, where a verbatim scan cannot see it."""

    PHRASE = "zebrafish manifesto"

    def test_tap_sees_form_encoded_plaintext(self):
        session = PrivateEditingSession("doc", "pw",
                                        extension_enabled=False)
        tap = EavesdropperTap()
        session.channel.add_tap(tap)
        session.open()
        session.type_text(0, self.PHRASE + " draft")
        session.save()
        assert not any(self.PHRASE in e.request.body
                       for e in tap.exchanges)
        assert tap.plaintext_sightings(self.PHRASE) >= 1

    def test_counts_each_side_once(self):
        body = encode_form({"docContents": self.PHRASE})
        tap = EavesdropperTap()
        tap(Exchange(HttpRequest("POST", "http://h/p?q=" + self.PHRASE,
                                 body=body),
                     HttpResponse(200, self.PHRASE + " " + body), 0.0, 0.0))
        assert tap.plaintext_sightings(self.PHRASE) == 2
        assert tap.plaintext_sightings("absent") == 0

    def test_bare_requests_use_the_same_match(self):
        requests = [
            HttpRequest("POST", "http://h/p",
                        body=encode_form({"docContents": self.PHRASE})),
            HttpRequest("GET", "http://h/p?doc=" + self.PHRASE),
            HttpRequest("POST", "http://h/p", body="ZEBRAFISH"),
        ]
        assert request_sightings(requests, self.PHRASE) == 2


class TestSessionLifecycle:
    def test_reopen_across_sessions(self):
        first = PrivateEditingSession(
            "doc", "pw", scheme="rpc", rng=DeterministicRandomSource(3),
        )
        first.open()
        first.type_text(0, SECRET)
        first.close()

        second = PrivateEditingSession(
            "doc", "pw", server=first.server,
            rng=DeterministicRandomSource(4),
        )
        assert second.open() == SECRET
        second.type_text(0, ">> ")
        second.save()
        assert second.text == ">> " + SECRET

    def test_wrong_password_shows_ciphertext(self):
        owner = PrivateEditingSession(
            "doc", "right", rng=DeterministicRandomSource(5),
        )
        owner.open()
        owner.type_text(0, SECRET)
        owner.save()

        intruder = PrivateEditingSession(
            "doc", "wrong", server=owner.server,
            rng=DeterministicRandomSource(6),
        )
        seen = intruder.open()
        assert looks_encrypted(seen)
        assert SECRET not in seen

    def test_disabled_extension_is_plaintext(self):
        session = PrivateEditingSession(
            "doc", "pw", extension_enabled=False,
        )
        session.open()
        session.type_text(0, SECRET)
        session.save()
        assert session.server_view() == SECRET

    def test_latency_model_advances_clock(self):
        session = PrivateEditingSession(
            "doc", "pw", latency=WAN_2011(1),
            rng=DeterministicRandomSource(7),
        )
        session.open()
        session.type_text(0, "timed")
        session.save()
        assert session.now > 0.1  # two WAN exchanges

    def test_long_session_many_saves(self):
        session = PrivateEditingSession(
            "doc", "pw", scheme="rpc", rng=DeterministicRandomSource(8),
        )
        session.open()
        session.type_text(0, "seed text. ")
        session.save()
        expected = session.text
        for i in range(25):
            session.type_text(len(session.text), f"edit {i}. ")
            expected += f"edit {i}. "
            outcome = session.save()
            assert outcome.kind == "delta"
        assert session.text == expected
        # an independent session reads the final state back
        reader = PrivateEditingSession(
            "doc", "pw", server=session.server,
            rng=DeterministicRandomSource(9),
        )
        assert reader.open() == expected


class TestDeltaTrafficShape:
    def test_incremental_saves_are_small(self):
        """The point of incremental encryption: a delta save's body is
        tiny relative to the full document."""
        session = PrivateEditingSession(
            "doc", "pw", rng=DeterministicRandomSource(10),
        )
        tap = EavesdropperTap()
        session.channel.add_tap(tap)
        session.open()
        session.type_text(0, "x" * 5000)
        session.save()
        full_bytes = tap.exchanges[-1].request.wire_bytes
        session.type_text(2500, "y")
        session.save()
        delta_bytes = tap.exchanges[-1].request.wire_bytes
        assert delta_bytes < full_bytes / 20
