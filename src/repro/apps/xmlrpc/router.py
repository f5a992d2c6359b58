"""Content-based XML-RPC message router (the paper's Fig. 12).

:class:`ContentBasedRouter` consumes the tagged-token stream: a STRING
token tagged with the *methodName* context carries the requested
service, and the accepting ``</methodCall>`` detection marks the
message boundary at which the switch commits the route.

:class:`RouterSession` is the streaming variant: the wire hands the
switch packets, not whole streams, so the session feeds arbitrary
chunks through the compiled tagger's incremental scan and emits each
message the moment its closing tag is detected — buffering only the
bytes that can still belong to an undecided message.

:class:`NaiveRouter` is the context-free baseline: it string-matches
service names anywhere in the payload, as a deep-packet-inspection
engine would, and drives the switch with every match signal — so a
service name planted inside a parameter value re-steers the switch
(the false positive the paper's introduction motivates).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.xmlrpc.services import BANK_SHOPPING_TABLE, ServiceTable
from repro.core.api import StreamSession
from repro.core.compiled import CompiledTagger
from repro.core.scanplan import DetectEvent
from repro.core.tagger import BehavioralTagger, GateLevelTagger
from repro.errors import BackendError
from repro.grammar.analysis import Occurrence
from repro.grammar.cfg import Grammar
from repro.grammar.examples import xmlrpc
from repro.software.naive import NaiveScanner


@dataclass(frozen=True)
class RoutedMessage:
    """One message with its routing decision."""

    start: int
    end: int
    port: int
    service: str | None
    payload: bytes

    def __str__(self) -> str:
        return f"[{self.start}:{self.end}] -> port {self.port} ({self.service})"


class ContentBasedRouter:
    """Routes a message stream using grammatical context (Fig. 12).

    Example
    -------
    >>> router = ContentBasedRouter()
    >>> msgs = router.route(b"<methodCall><methodName>buy</methodName>"
    ...                     b"<params></params></methodCall>")
    >>> msgs[0].port
    1
    """

    def __init__(
        self,
        grammar: Grammar | None = None,
        table: ServiceTable | None = None,
        tagger: BehavioralTagger | GateLevelTagger | None = None,
        method_element: str = "methodName",
    ) -> None:
        self.grammar = grammar if grammar is not None else xmlrpc()
        self.table = table if table is not None else BANK_SHOPPING_TABLE
        self.method_element = method_element
        self.tagger = tagger if tagger is not None else BehavioralTagger(self.grammar)

        #: Occurrences whose detection carries the service name: any
        #: terminal inside the methodName element's production body.
        self.method_occurrences: set[Occurrence] = set()
        self.accepting: set[Occurrence] = set(self._accepting_of(self.tagger))
        for production in self.grammar.productions:
            if production.lhs.name != method_element:
                continue
            for position, symbol in enumerate(production.rhs):
                from repro.grammar.symbols import Terminal

                if isinstance(symbol, Terminal) and not self.grammar.lexspec.get(
                    symbol.name
                ).is_literal:
                    self.method_occurrences.add(
                        Occurrence(production.index, position, symbol)
                    )
        if not self.method_occurrences:
            raise BackendError(
                f"grammar {self.grammar.name!r} has no data token inside "
                f"element {method_element!r}"
            )

    @staticmethod
    def _accepting_of(tagger) -> set[Occurrence]:
        if isinstance(tagger, BehavioralTagger):
            return set(tagger.accepting)
        return set(tagger.circuit.scanner.graph.accepting)

    # ------------------------------------------------------------------
    def route(self, data: bytes) -> list[RoutedMessage]:
        """Split and route every message in the stream."""
        messages: list[RoutedMessage] = []
        message_start: int | None = None
        service: str | None = None
        for token in self.tagger.tag(data):
            if message_start is None:
                message_start = token.start
            if token.occurrence in self.method_occurrences:
                service = token.text()
            if token.occurrence in self.accepting:
                messages.append(
                    RoutedMessage(
                        start=message_start,
                        end=token.end,
                        port=(
                            self.table.port_of(service)
                            if service is not None
                            else self.table.default_port
                        ),
                        service=service,
                        payload=data[message_start : token.end],
                    )
                )
                message_start = None
                service = None
        return messages

    def route_to_ports(self, data: bytes) -> dict[int, list[RoutedMessage]]:
        """Messages grouped per output port (the Fig. 12 switch view)."""
        ports: dict[int, list[RoutedMessage]] = {}
        for message in self.route(data):
            ports.setdefault(message.port, []).append(message)
        return ports

    def stream(self) -> "RouterSession":
        """A fresh incremental routing session (one per flow)."""
        return RouterSession(self)

    def shard(self, n_workers: int = 2, **service_options):
        """A sharded multi-process scan service over this router's
        grammar and table (see :class:`repro.service.ScanService`).

        Flows submitted to the returned service are hash-sharded to
        ``n_workers`` OS processes, each running independent
        :class:`RouterSession` state per flow; per-flow results are
        byte-for-byte what :meth:`route` produces on the concatenated
        stream.
        """
        from repro.service import RouterSpec, ScanService

        spec = RouterSpec(
            grammar=self.grammar,
            table=self.table,
            method_element=self.method_element,
        )
        return ScanService(spec, n_workers=n_workers, **service_options)


class RouterSession(StreamSession):
    """Incremental routing over a chunked byte stream.

    Chunk boundaries are arbitrary (packet payloads, read() returns);
    :meth:`feed` returns the messages completed inside each chunk, with
    absolute stream positions, and :meth:`finish` flushes the tail.
    The session produces exactly the messages
    :meth:`ContentBasedRouter.route` would on the concatenated stream,
    while holding only the bytes that can still belong to an undecided
    message (in-flight token candidates plus the open message's
    payload).

    Example
    -------
    >>> session = ContentBasedRouter().stream()
    >>> session.feed(b"<methodCall><methodName>buy</methodName>")
    []
    >>> session.feed(b"<params></params></methodCall> ")
    [RoutedMessage(start=0, end=70, port=1, service='buy', payload=...)]
    """

    def __init__(self, router: ContentBasedRouter) -> None:
        self.router = router
        tagger = router.tagger
        compiled = (
            tagger
            if isinstance(tagger, CompiledTagger)
            else getattr(tagger, "compiled", None)
        )
        if compiled is None:
            raise BackendError(
                "streaming routing needs the compiled tagger engine; "
                f"{type(tagger).__name__} cannot scan incrementally"
            )
        self._stream = compiled.stream()
        self._buffer = bytearray()
        self._base = 0  # absolute stream position of _buffer[0]
        self._message_start: int | None = None
        self._service: str | None = None

    # ------------------------------------------------------------------
    def feed(self, chunk: bytes) -> list[RoutedMessage]:
        """Consume one chunk; return the messages it completed."""
        self._check_open()
        self._buffer += chunk
        messages = self._apply(self._stream.feed_scan(chunk))
        self._prune()
        return messages

    def finish(self) -> list[RoutedMessage]:
        """End the stream; return messages completed by end-of-data."""
        self._check_open()
        messages = self._flush_snapshot()
        self._stream.close()
        self._finished = True
        return messages

    def peek_finish(self) -> list[RoutedMessage]:
        """Messages finishing now would add, without ending the stream.

        End-of-data is evaluated on a snapshot of the scan state, so
        feeding can continue afterwards — the mid-stream inspection
        point per-flow back-ends need.
        """
        return self._flush_snapshot()

    def _flush_snapshot(self) -> list[RoutedMessage]:
        """The one end-of-data flush path (:meth:`finish` commits it,
        :meth:`peek_finish` only observes it): run the per-token state
        machine over a snapshot flush and roll the session's message
        state back, leaving feeding possible."""
        saved = (self._message_start, self._service)
        messages = self._apply(self._stream.finish_scan_snapshot())
        self._message_start, self._service = saved
        return messages

    # ------------------------------------------------------------------
    def _apply(
        self, results: list[tuple[DetectEvent, int]]
    ) -> list[RoutedMessage]:
        """The same per-token state machine as :meth:`route`, driven by
        (event, earliest-start) pairs against the retained buffer."""
        router = self.router
        base = self._base
        buffer = self._buffer
        messages: list[RoutedMessage] = []
        for event, start in results:
            if self._message_start is None:
                self._message_start = start
            occurrence = event.occurrence
            if occurrence in router.method_occurrences:
                lexeme = bytes(buffer[start - base : event.end - base])
                self._service = lexeme.decode("utf-8", errors="replace")
            if occurrence in router.accepting:
                service = self._service
                message_start = self._message_start
                messages.append(
                    RoutedMessage(
                        start=message_start,
                        end=event.end,
                        port=(
                            router.table.port_of(service)
                            if service is not None
                            else router.table.default_port
                        ),
                        service=service,
                        payload=bytes(
                            buffer[message_start - base : event.end - base]
                        ),
                    )
                )
                self._message_start = None
                self._service = None
        return messages

    def _prune(self) -> None:
        """Drop buffered bytes no future message can reference: before
        both the scanner's earliest in-flight match start and the open
        message's start."""
        keep = self._stream.low_watermark()
        if self._message_start is not None and self._message_start < keep:
            keep = self._message_start
        drop = keep - self._base
        if drop > 0:
            del self._buffer[:drop]
            self._base = keep


class NaiveRouter:
    """Context-free baseline: string-match service names anywhere.

    The switch follows every match signal, so the *last* hit in a
    message decides its port — exactly how a naive hardware matcher
    wired to the Fig. 12 switch would behave. ``policy="first"`` is
    the software-style alternative; both misroute on planted names.
    """

    def __init__(
        self,
        table: ServiceTable | None = None,
        policy: str = "last",
        boundary: bytes = b"</methodCall>",
    ) -> None:
        if policy not in ("first", "last"):
            raise BackendError(f"unknown policy {policy!r}")
        self.table = table if table is not None else BANK_SHOPPING_TABLE
        self.policy = policy
        self.boundary = boundary
        self._needles = [s.encode("ascii") for s in self.table.services]

    # ------------------------------------------------------------------
    def route(self, data: bytes) -> list[RoutedMessage]:
        messages: list[RoutedMessage] = []
        position = 0
        while True:
            boundary_at = data.find(self.boundary, position)
            if boundary_at < 0:
                break
            end = boundary_at + len(self.boundary)
            payload = data[position:end]
            hits = NaiveScanner.find_strings(payload, self._needles)
            if hits:
                chosen = hits[-1] if self.policy == "last" else hits[0]
                service: str | None = chosen.name
                port = self.table.port_of(chosen.name)
            else:
                service, port = None, self.table.default_port
            messages.append(
                RoutedMessage(
                    start=position,
                    end=end,
                    port=port,
                    service=service,
                    payload=payload,
                )
            )
            position = end
            while position < len(data) and data[position] in b" \t\r\n":
                position += 1
        return messages
