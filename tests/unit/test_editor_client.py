"""EditorBuffer and the benign Google Docs client (without extension)."""

import pytest

from repro.client.editor import EditorBuffer
from repro.client.gdocs_client import GDocsClient
from repro.errors import DeltaApplicationError, SessionError
from repro.net.channel import Channel
from repro.obs import capture
from repro.services.gdocs.server import GDocsServer


class TestEditorBuffer:
    def test_insert_delete_replace(self):
        buf = EditorBuffer("hello world")
        buf.insert(5, ",")
        assert buf.text == "hello, world"
        buf.delete(0, 7)
        assert buf.text == "world"
        buf.replace(0, 5, "earth")
        assert buf.text == "earth"

    def test_bounds(self):
        buf = EditorBuffer("abc")
        with pytest.raises(DeltaApplicationError):
            buf.insert(4, "x")
        with pytest.raises(DeltaApplicationError):
            buf.delete(2, 2)

    def test_dirty_tracking(self):
        buf = EditorBuffer("abc")
        assert not buf.dirty
        buf.insert(0, "x")
        assert buf.dirty
        buf.mark_synced()
        assert not buf.dirty

    def test_pending_delta_round_trip(self):
        buf = EditorBuffer("the quick brown fox")
        buf.delete(4, 6)
        buf.insert(4, "slow ")
        delta = buf.pending_delta()
        assert delta.apply(buf.synced_text) == buf.text

    def test_resync(self):
        buf = EditorBuffer("local")
        buf.resync("authoritative")
        assert buf.text == "authoritative" and not buf.dirty

    def test_set_text_keeps_baseline(self):
        buf = EditorBuffer("base")
        buf.mark_synced()
        buf.set_text("base plus hidden")
        assert buf.dirty
        assert buf.synced_text == "base"


@pytest.fixture
def client():
    return GDocsClient(Channel(GDocsServer()), "doc")


class TestGDocsClientPlain:
    def test_open_save_cycle(self, client):
        assert client.open() == ""
        client.type_text(0, "hello")
        outcome = client.save()
        assert outcome.kind == "full" and not outcome.conflict
        client.type_text(5, " world")
        outcome = client.save()
        assert outcome.kind == "delta"
        assert client.complaints == []

    def test_save_without_session(self, client):
        with pytest.raises(SessionError):
            client.save()

    def test_noop_save_skipped(self, client):
        client.open()
        client.type_text(0, "x")
        client.save()
        assert client.save().kind == "noop"

    def test_close_flushes(self, client):
        client.open()
        client.type_text(0, "unsaved")
        client.close()
        assert not client.in_session
        # reopen sees the flushed content
        assert client.open() == "unsaved"

    def test_reopen_full_saves_again(self, client):
        """Each session's first save is a full docContents POST."""
        client.open()
        client.type_text(0, "v1")
        assert client.save().kind == "full"
        client.close()
        client.open()
        client.type_text(2, "+more")
        assert client.save().kind == "full"

    def test_hash_check_passes_plain(self, client):
        client.open()
        client.type_text(0, "consistent")
        outcome = client.save()
        assert outcome.complaints == []

    def test_refresh(self, client):
        client.open()
        client.type_text(0, "shared state")
        client.save()
        other = GDocsClient(client._channel, "doc")
        other.open()
        assert other.refresh() == "shared state"

    def test_word_count_is_client_side(self, client):
        client.open()
        client.type_text(0, "one two three")
        with capture() as cap:
            assert client.word_count() == 3
        assert cap["net.exchanges"] == 0  # no traffic


class TestConcurrentPlainClients:
    def test_conflict_resync_without_extension(self):
        """Without the extension the Ack carries usable content, so a
        conflicting client resyncs silently — collaboration works."""
        channel = Channel(GDocsServer())
        alice = GDocsClient(channel, "doc")
        bob = GDocsClient(channel, "doc")
        alice.open()
        alice.type_text(0, "alice's text")
        alice.save()
        bob.open()
        bob.type_text(0, "bob was here: ")
        bob.save()
        # alice's next delta is stale -> conflict -> silent resync
        alice.type_text(0, "more ")
        outcome = alice.save()
        assert outcome.conflict
        assert alice.complaints == []
        assert alice.editor.text == "bob was here: alice's text"
