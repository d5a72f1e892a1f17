"""The client↔server channel with mediation, taps, and tampering.

This is the simulation's stand-in for the browser's network stack — the
place where the 2011 Firefox extension hooked request observation.  A
:class:`Channel` delivers :class:`HttpRequest` objects to a server
callable and returns its :class:`HttpResponse`, with four hook points:

* **mediator** — the trusted extension: may rewrite the outgoing
  request, rewrite the incoming response, or *drop* the request
  entirely (the fail-closed branch of Fig. 2);
* **taps** — passive eavesdroppers (the paper notes many cloud servers
  ran without SSL, so our adversary sees all traffic; a tap is the
  only way to watch it: the channel keeps no exchanges of its own);
* **tamperers** — active network adversaries that mutate messages in
  flight;
* **faults** — an optional :class:`repro.net.faults.FaultPlan` that
  makes the network itself unreliable (drops, duplicates, reordering,
  corruption, injected 5xx/429) — distinct from tamperers in that it
  models *failure*, not malice, and may prevent an exchange from
  completing at all (raising
  :class:`~repro.errors.NetworkTimeoutError`).

Every exchange advances the simulated clock by the latency model's
estimate, is counted in the ``net.*`` metrics and goes to each tap.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.errors import BlockedRequestError
from repro.net.http import HttpRequest, HttpResponse
from repro.net.latency import INSTANT, LatencyModel, SimClock
from repro.net.transport import Exchange, InProcessTransport, Transport
from repro.obs import counter, histogram

__all__ = ["Mediator", "Channel", "Exchange"]

_EXCHANGES = counter("net.exchanges")
_WIRE_BYTES = counter("net.wire_bytes")
_BLOCKED = counter("net.blocked")
_LATENCY = histogram("net.latency_seconds")


class Mediator(Protocol):
    """The extension's view of the traffic (both directions)."""

    def on_request(self, request: HttpRequest) -> HttpRequest | None:
        """Rewrite an outgoing request; return None to drop it."""
        ...  # pragma: no cover

    def on_response(
        self, request: HttpRequest, response: HttpResponse
    ) -> HttpResponse:
        """Rewrite an incoming response."""
        ...  # pragma: no cover


class Channel:
    """Delivers requests to a server with mediation and observation.

    Keeps nothing per exchange: to read the traffic, attach a tap
    (:meth:`add_tap`) before it flows."""

    def __init__(
        self,
        server: Callable[[HttpRequest], HttpResponse],
        latency: LatencyModel | None = None,
        clock: SimClock | None = None,
        faults=None,
    ):
        # the transport seam (PR 7): a bare server callable is wrapped
        # in InProcessTransport (byte-for-byte the old direct call); an
        # AsyncioSocketTransport passes through and the same mediation,
        # fault, and latency machinery rides on top of real TCP
        self._server = (
            server if isinstance(server, Transport)
            else InProcessTransport(server)
        )
        #: optional repro.net.faults.FaultPlan making delivery unreliable
        self.faults = faults
        self._latency = latency if latency is not None else INSTANT()
        self.clock = clock if clock is not None else SimClock()
        self._mediator: Mediator | None = None
        self._taps: list[Callable[[Exchange], None]] = []
        self._request_tamperer: Callable[[HttpRequest], HttpRequest] | None = None
        self._response_tamperer: Callable[[HttpResponse], HttpResponse] | None = None

    @property
    def transport(self) -> Transport:
        """The transport this channel delivers through."""
        return self._server

    # -- configuration ---------------------------------------------------

    def set_mediator(self, mediator: Mediator | None) -> None:
        """Install (or remove) the trusted extension."""
        self._mediator = mediator

    def add_tap(self, tap: Callable[[Exchange], None]) -> None:
        """Attach a passive eavesdropper."""
        self._taps.append(tap)

    def set_tamperers(
        self,
        on_request: Callable[[HttpRequest], HttpRequest] | None = None,
        on_response: Callable[[HttpResponse], HttpResponse] | None = None,
    ) -> None:
        """Attach an active network adversary."""
        self._request_tamperer = on_request
        self._response_tamperer = on_response

    # -- delivery --------------------------------------------------------

    def send(self, request: HttpRequest) -> HttpResponse:
        """Run one full exchange.

        Order matters and mirrors the deployment: the mediator sees the
        *plaintext* client request before anything reaches the wire; the
        adversary (taps/tamperers) sees only what leaves the mediator.
        """
        if self._mediator is not None:
            mediated = self._mediator.on_request(request)
            if mediated is None:
                _BLOCKED.inc()
                raise BlockedRequestError(
                    f"extension dropped unrecognized request "
                    f"{request.method} {request.url}"
                )
            outgoing = mediated
        else:
            outgoing = request

        if self._request_tamperer is not None:
            outgoing = self._request_tamperer(outgoing)

        if self.faults is not None:
            # The fault plan owns delivery: it may mutate, duplicate,
            # reorder, answer for the server, or lose the exchange
            # entirely (raising NetworkTimeoutError — no tap sees it
            # because nothing completed on the wire; the plan records
            # what it saw in ``faults.observed``).
            outgoing, response = self.faults.deliver(
                outgoing, self._server, self.clock
            )
        else:
            response = self._server(outgoing)

        if self._response_tamperer is not None:
            response = self._response_tamperer(response)

        sent_bytes = outgoing.wire_bytes
        received_bytes = response.wire_bytes
        latency = self._latency.request_latency(
            sent_bytes, received_bytes, now=self.clock.now()
        )
        sent_at = self.clock.now()
        self.clock.advance(latency)
        _EXCHANGES.inc()
        _WIRE_BYTES.inc(sent_bytes + received_bytes)
        _LATENCY.observe(latency)
        exchange = Exchange(outgoing, response, sent_at, latency)
        for tap in self._taps:
            tap(exchange)

        if self._mediator is not None:
            response = self._mediator.on_response(outgoing, response)
        return response
