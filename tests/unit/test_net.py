"""Network substrate: messages, latency model, channel mediation."""

import pytest

from repro.errors import BlockedRequestError, ProtocolError
from repro.net.channel import Channel
from repro.net.http import HttpRequest, HttpResponse, parse_url
from repro.net.latency import INSTANT, LAN, WAN_2011, LatencyModel, SimClock
from repro.obs import capture


class TestHttp:
    def test_parse_url(self):
        host, path, params = parse_url(
            "http://docs.google.com/Doc?docID=abc&x=1"
        )
        assert host == "docs.google.com"
        assert path == "/Doc"
        assert params == {"docID": "abc", "x": "1"}

    def test_parse_url_no_query(self):
        assert parse_url("http://h/p") == ("h", "/p", {})

    def test_parse_url_bare_host(self):
        assert parse_url("http://h") == ("h", "/", {})

    def test_bad_scheme(self):
        with pytest.raises(ProtocolError):
            parse_url("ftp://host/x")

    def test_request_form_round_trip(self):
        req = HttpRequest("POST", "http://h/p").with_form(
            {"a": "x y", "b": "&="}
        )
        assert req.form == {"a": "x y", "b": "&="}

    def test_wire_bytes_grows_with_body(self):
        small = HttpRequest("POST", "http://h/p", body="x")
        big = HttpRequest("POST", "http://h/p", body="x" * 1000)
        assert big.wire_bytes > small.wire_bytes

    def test_response_ok(self):
        assert HttpResponse(200).ok
        assert HttpResponse(204).ok
        assert not HttpResponse(404).ok


class TestLatency:
    def test_clock_advances(self):
        clock = SimClock()
        assert clock.now() == 0.0
        clock.advance(1.5)
        assert clock.now() == 1.5
        with pytest.raises(ValueError):
            clock.advance(-1)

    def test_instant_model_is_zero(self):
        assert INSTANT().request_latency(100, 100) == 0.0

    def test_wan_slower_than_lan(self):
        wan = sum(WAN_2011(0).request_latency(500, 500) for _ in range(20))
        lan = sum(LAN(0).request_latency(500, 500) for _ in range(20))
        assert wan > lan * 5

    def test_latency_positive(self):
        model = WAN_2011(1)
        assert all(
            model.request_latency(100, 100) > 0 for _ in range(100)
        )

    def test_transfer_term(self):
        model = LatencyModel(rtt_mean=0, rtt_jitter=0, server_mean=0,
                             server_jitter=0, bytes_per_second=1000)
        assert model.request_latency(500, 500) == pytest.approx(1.0)


def _echo_server(request: HttpRequest) -> HttpResponse:
    return HttpResponse(200, request.body)


class TestChannel:
    def test_basic_exchange(self):
        seen = []
        ch = Channel(_echo_server)
        ch.add_tap(seen.append)
        resp = ch.send(HttpRequest("POST", "http://h/p", body="ping"))
        assert resp.body == "ping"
        [exchange] = seen
        assert exchange.request.body == exchange.response.body == "ping"

    def test_aggregates_count_every_exchange(self):
        """The net.* metrics, not a per-channel log, are the record of
        how much traffic a channel carried."""
        ch = Channel(_echo_server)
        with capture() as cap:
            for _ in range(6):
                ch.send(HttpRequest("POST", "http://h/p", body="x"))
        assert cap["net.exchanges"] == 6
        assert cap["net.latency_seconds"] == 6

    def test_clock_advances_per_exchange(self):
        ch = Channel(_echo_server, latency=WAN_2011(0))
        before = ch.clock.now()
        ch.send(HttpRequest("GET", "http://h/p"))
        assert ch.clock.now() > before

    def test_mediator_rewrites(self):
        class Med:
            def on_request(self, request):
                return request.with_body("MEDIATED")

            def on_response(self, request, response):
                return response.with_body(response.body + "+BACK")

        ch = Channel(_echo_server)
        ch.set_mediator(Med())
        resp = ch.send(HttpRequest("POST", "http://h/p", body="orig"))
        assert resp.body == "MEDIATED+BACK"

    def test_mediator_drop_raises_and_logs(self):
        class DropAll:
            def on_request(self, request):
                return None

            def on_response(self, request, response):
                return response

        seen = []
        ch = Channel(_echo_server)
        ch.set_mediator(DropAll())
        ch.add_tap(seen.append)
        with capture() as cap:
            with pytest.raises(BlockedRequestError):
                ch.send(HttpRequest("POST", "http://h/p", body="x"))
        assert cap["net.blocked"] == 1
        assert cap["net.exchanges"] == 0
        assert seen == []

    def test_tap_sees_post_mediation_traffic(self):
        class Med:
            def on_request(self, request):
                return request.with_body("CIPHERTEXT")

            def on_response(self, request, response):
                return response.with_body("PLAINTEXT")

        seen = []
        ch = Channel(_echo_server)
        ch.set_mediator(Med())
        ch.add_tap(seen.append)
        ch.send(HttpRequest("POST", "http://h/p", body="SECRET"))
        [exchange] = seen
        assert exchange.request.body == "CIPHERTEXT"
        assert exchange.response.body == "CIPHERTEXT"  # pre-unmediation

    def test_tamperer_mutates(self):
        ch = Channel(_echo_server)
        ch.set_tamperers(
            on_request=lambda r: r.with_body("EVIL"),
        )
        resp = ch.send(HttpRequest("POST", "http://h/p", body="good"))
        assert resp.body == "EVIL"

    def test_net_wire_bytes_identical_for_ascii_and_non_ascii(self):
        """Two bodies of the same UTF-8 size, one ASCII (sized by
        length) and one not (sized by encoding), count the same
        ``net.wire_bytes`` per echoed exchange: request + response."""
        ascii_body, utf8_body = "x" * 12, "書" * 4
        assert len(ascii_body.encode()) == len(utf8_body.encode())
        counted = []
        for body in (ascii_body, utf8_body):
            request = HttpRequest("POST", "http://h/p", body=body)
            with capture() as cap:
                Channel(_echo_server).send(request)
            assert cap["net.wire_bytes"] == \
                request.wire_bytes + HttpResponse(200, body).wire_bytes
            counted.append(cap["net.wire_bytes"])
        assert counted[0] == counted[1]


class TestUrlParseCache:
    def test_host_path_query_parse_once(self):
        from repro.obs import capture

        req = HttpRequest("GET", "http://docs.google.com/Doc?docID=abc&x=1")
        with capture() as cap:
            assert req.host == "docs.google.com"
            assert req.path == "/Doc"
            assert req.query == {"docID": "abc", "x": "1"}
            assert req.query["docID"] == "abc"
        assert cap["net.url_parses"] == 1
        assert cap["net.url_cache_hits"] == 3

    def test_cached_query_is_a_copy(self):
        req = HttpRequest("GET", "http://h/p?a=1")
        req.query["a"] = "poisoned"
        assert req.query == {"a": "1"}


class TestChannelWithFaults:
    """The faults hook point: ordering against mediator and tamperers."""

    def test_faults_see_post_tamperer_request(self):
        from repro.net.faults import FaultPlan

        plan = FaultPlan([])
        ch = Channel(_echo_server, faults=plan)
        ch.set_tamperers(on_request=lambda r: r.with_body("TAMPERED"))
        ch.send(HttpRequest("POST", "http://h/p", body="original"))
        assert [r.body for r in plan.observed] == ["TAMPERED"]

    def test_lost_exchange_is_not_logged(self):
        from repro.errors import NetworkTimeoutError
        from repro.net.faults import FaultPlan, FaultSpec

        seen = []
        plan = FaultPlan([FaultSpec(kind="drop", at=(0,))])
        ch = Channel(_echo_server, faults=plan)
        ch.add_tap(seen.append)
        with pytest.raises(NetworkTimeoutError):
            ch.send(HttpRequest("POST", "http://h/p", body="x"))
        assert seen == []                  # nothing completed on the wire
        assert [r.body for r in plan.observed] == ["x"]  # but it left

    def test_fault_timeout_advances_channel_clock(self):
        from repro.errors import NetworkTimeoutError
        from repro.net.faults import FaultPlan, FaultSpec

        plan = FaultPlan([FaultSpec(kind="drop", at=(0,))],
                         timeout_seconds=1.5)
        ch = Channel(_echo_server, faults=plan)
        with pytest.raises(NetworkTimeoutError):
            ch.send(HttpRequest("POST", "http://h/p", body="x"))
        assert ch.clock.now() == 1.5

    def test_mediator_drop_preempts_faults(self):
        from repro.net.faults import FaultPlan, FaultSpec

        class DropAll:
            def on_request(self, request):
                return None

            def on_response(self, request, response):
                return response

        plan = FaultPlan([FaultSpec(kind="dup", rate=1.0)])
        ch = Channel(_echo_server, faults=plan)
        ch.set_mediator(DropAll())
        with pytest.raises(BlockedRequestError):
            ch.send(HttpRequest("POST", "http://h/p", body="x"))
        assert plan.observed == []         # fail-closed: never on the wire
