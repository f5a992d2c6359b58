"""Layered protocol wrapper: packets in, tagged content out.

The FPX composes "layered protocol wrappers" [5] with content
processors; this is that composition in the reproduction: frames are
parsed, TCP flows reassembled, and each flow's in-order byte stream is
run through its own tagger back-end — here the §4 XML-RPC router.

Per-flow state mirrors the hardware reality: one scanning context per
flow (the FPX TCP scanner kept per-flow matcher state the same way).
Two back-end arrangements are supported:

* **local streaming** (default): each flow owns a
  :class:`~repro.apps.xmlrpc.router.RouterSession`, so payload bytes
  are tagged as packets arrive;
* **whole-stream fallback**: taggers that cannot scan incrementally
  (e.g. gate-level) are re-run over each flow's bytes at inspection
  time.

Served traffic scales out through ``repro cluster`` (one
``repro serve`` per core), not inside the wrapper.

The wrapper itself implements the
:class:`~repro.core.api.StreamSession` contract — ``feed(frame)``
consumes one wire frame and returns the ``(flow, message)`` pairs it
completed, ``finish()`` flushes every flow against end-of-data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.netstack.flows import FlowKey, TCPReassembler
from repro.apps.netstack.packets import Packet
from repro.apps.xmlrpc.router import (
    ContentBasedRouter,
    RoutedMessage,
    RouterSession,
)
from repro.core.api import StreamSession
from repro.errors import BackendError


@dataclass
class FlowResult:
    """Everything the wrapper extracted from one flow."""

    key: FlowKey
    payload: bytes = b""
    messages: list[RoutedMessage] = field(default_factory=list)


class TaggingWrapper(StreamSession):
    """Packet-level front end for a content-based router.

    Example
    -------
    >>> from repro.apps.netstack.tracegen import TraceGenerator
    >>> from repro.apps.xmlrpc import MethodCall
    >>> wrapper = TaggingWrapper()
    >>> trace = TraceGenerator(mss=16).trace([MethodCall("buy").encode()])
    >>> results = wrapper.process(trace)
    >>> results[0].messages[0].port
    1
    """

    def __init__(self, router: ContentBasedRouter | None = None) -> None:
        self.router = router if router is not None else ContentBasedRouter()
        self.reassembler = TCPReassembler()
        self._payloads: dict[FlowKey, bytearray] = {}
        self._sessions: dict[FlowKey, RouterSession] = {}
        self._messages: dict[FlowKey, list[RoutedMessage]] = {}
        self._final: list[FlowResult] | None = None
        try:
            self.router.stream()
            self._streaming = True
        except BackendError:
            # e.g. a gate-level tagger: route whole streams at
            # inspection time instead
            self._streaming = False
        self.malformed = 0

    # ------------------------------------------------------------------
    # StreamSession surface
    # ------------------------------------------------------------------
    def feed(self, frame: bytes) -> list[tuple[FlowKey, RoutedMessage]]:
        """Consume one wire frame; return the (flow, message) pairs it
        completed (parse errors are counted, not fatal)."""
        self._check_open()
        try:
            packet = Packet.parse(frame)
        except BackendError:
            self.malformed += 1
            return []
        return self.feed_packet(packet)

    def feed_packet(
        self, packet: Packet
    ) -> list[tuple[FlowKey, RoutedMessage]]:
        """Like :meth:`feed` for an already-parsed packet."""
        self._check_open()
        key, data = self.reassembler.push(packet)
        completed: list[tuple[FlowKey, RoutedMessage]] = []
        if data:
            self._payloads.setdefault(key, bytearray()).extend(data)
            if self._streaming:
                session = self._sessions.get(key)
                if session is None:
                    session = self._sessions[key] = self.router.stream()
                    self._messages[key] = []
                messages = session.feed(bytes(data))
                self._messages[key].extend(messages)
                completed.extend((key, message) for message in messages)
        return completed

    def finish(self) -> list[FlowResult]:
        """Flush every flow against end-of-data and end the session.

        Returns the final per-flow results (also cached, so
        :meth:`results` keeps answering afterwards).
        """
        self._check_open()
        results = []
        for key, payload in self._payloads.items():
            data = bytes(payload)
            if self._streaming:
                messages = self._messages[key] + self._sessions[key].finish()
            else:
                messages = self.router.route(data)
            results.append(
                FlowResult(key=key, payload=data, messages=messages)
            )
        self._finished = True
        self._final = results
        return results

    # ------------------------------------------------------------------
    # inspection API
    # ------------------------------------------------------------------
    def results(self) -> list[FlowResult]:
        """Every flow's messages so far (idempotent; callable mid-trace).

        Streaming flows report the messages already emitted plus
        whatever end-of-data would complete right now, evaluated on a
        snapshot (:meth:`~repro.apps.xmlrpc.router.RouterSession.peek_finish`),
        so later packets still tag incrementally.
        """
        if self._final is not None:
            return self._final
        results = []
        for key, payload in self._payloads.items():
            data = bytes(payload)
            if self._streaming:
                session = self._sessions[key]
                messages = self._messages[key] + session.peek_finish()
            else:
                messages = self.router.route(data)
            results.append(
                FlowResult(key=key, payload=data, messages=messages)
            )
        return results

    def process(
        self,
        packets: list[Packet] | None = None,
        frames: list[bytes] | None = None,
    ) -> list[FlowResult]:
        """Convenience: push a whole trace and return the flow results."""
        for packet in packets or ():
            self.feed_packet(packet)
        for frame in frames or ():
            self.feed(frame)
        return self.results()
