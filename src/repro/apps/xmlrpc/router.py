"""Content-based XML-RPC message router (the paper's Fig. 12).

:class:`ContentBasedRouter` consumes the tagged-token stream: a STRING
token tagged with the *methodName* context carries the requested
service, and the accepting ``</methodCall>`` detection marks the
message boundary at which the switch commits the route.

:class:`RouterSession` is the streaming variant: the wire hands the
switch packets, not whole streams, so the session feeds arbitrary
chunks through the compiled tagger's incremental scan and emits each
message the moment its closing tag is detected — buffering only the
bytes that can still belong to an undecided message. As in the
paper's back-end, which sees ``(index, data)`` and lets everything but
the method-name and end-of-message contexts fall in the index encoder,
the session reads the scan through the packed sink
(:meth:`~repro.core.compiled.CompiledStream.feed_packed`): only those
two contexts' hits ever reach Python, ~2 per message.

:class:`NaiveRouter` is the context-free baseline: it string-matches
service names anywhere in the payload, as a deep-packet-inspection
engine would, and drives the switch with every match signal — so a
service name planted inside a parameter value re-steers the switch
(the false positive the paper's introduction motivates).
"""

from __future__ import annotations

from array import array

from repro.apps.xmlrpc.messages import RoutedMessage, RouteRecord
from repro.apps.xmlrpc.services import BANK_SHOPPING_TABLE, ServiceTable
from repro.core.api import StreamSession
from repro.core.compiled import CompiledTagger
from repro.core.tagger import BehavioralTagger, GateLevelTagger
from repro.core.tokens import TaggedToken
from repro.errors import BackendError
from repro.grammar.analysis import Occurrence
from repro.grammar.cfg import Grammar
from repro.grammar.examples import xmlrpc
from repro.grammar.symbols import Terminal
from repro.software.naive import NaiveScanner


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
        #: data token inside the methodName element's production body.
        self.method_occurrences: set[Occurrence] = {
            Occurrence(production.index, position, symbol)
            for production in self.grammar.productions
            if production.lhs.name == method_element
            for position, symbol in enumerate(production.rhs)
            if isinstance(symbol, Terminal)
            and not self.grammar.lexspec.get(symbol.name).is_literal
        }
        behavioral = isinstance(self.tagger, BehavioralTagger)
        self.accepting: set[Occurrence] = set(
            self.tagger.accepting
            if behavioral
            else self.tagger.circuit.scanner.plan.accepting
        )
        if not self.method_occurrences:
            raise BackendError(
                f"grammar {self.grammar.name!r} has no data token inside "
                f"element {method_element!r}"
            )
        #: The tagger's streaming engine (None: the interpreted and
        #: gate-level taggers cannot scan incrementally).
        self._compiled: CompiledTagger | None = (
            self.tagger
            if isinstance(self.tagger, CompiledTagger)
            else getattr(self.tagger, "compiled", None)
        )
        #: The packed sink's select mask, one byte per plan unit:
        #: bit 0 = its lexeme is the service name, bit 1 = its
        #: detection ends a message.
        self._select = bytes(
            self._role(unit)
            for unit in (self._compiled.units if self._compiled else ())
        )
        #: :meth:`route`'s one lookup per token: ``token[field]`` ->
        #: the same two bits.  A behavioral tagger's encoder index is
        #: unique per unit, so the key is an int; hashing and comparing
        #: the :class:`Occurrence` costs ten times the rest of the loop.
        if behavioral:
            self._key_field = TaggedToken._fields.index("index")
            index_of = self.tagger.index_of
            self._roles = {index_of(u): self._role(u) for u in self.tagger.units}
        else:
            self._key_field = TaggedToken._fields.index("occurrence")
            self._roles = {
                u: self._role(u) for u in self.method_occurrences | self.accepting
            }

    def _role(self, unit: Occurrence) -> int:
        return (unit in self.method_occurrences) | (unit in self.accepting) << 1

    # ------------------------------------------------------------------
    def route(self, data: bytes) -> list[RoutedMessage]:
        """Split and route every message in the stream."""
        messages: list[RoutedMessage] = []
        message_start: int | None = None
        service: str | None = None
        field = self._key_field
        role_of = self._roles.get
        for token in self.tagger.tag(data):
            if message_start is None:
                message_start = token.start
            role = role_of(token[field])
            if not role:
                continue
            if role & 1:
                service = token.text()
            if role & 2:
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
        if router._compiled is None:
            raise BackendError(
                "streaming routing needs the compiled tagger engine; "
                f"{type(router.tagger).__name__} cannot scan incrementally"
            )
        self._stream = router._compiled.stream()
        #: The native kernel's module when the router's tagger runs it:
        #: its packed records are assembled there.
        native = getattr(router._compiled, "_nt", None)
        self._kernel = native.ext if native is not None else None
        self._buffer = bytearray()
        self._base = 0  # absolute stream position of _buffer[0]
        #: The packed sink's carry: (message open, message start).
        self._carry = array("q", (0, 0))
        self._service: str | None = None

    # ------------------------------------------------------------------
    def feed(self, chunk: bytes) -> list[RoutedMessage]:
        """Consume one chunk; return the messages it completed."""
        self._check_open()
        messages = self._with_payload(self._scan(chunk))
        self._prune()
        return messages

    def feed_records(self, chunk: bytes) -> list[RouteRecord]:
        """:meth:`feed` by span: the same decisions without copying
        the messages' bytes out."""
        self._check_open()
        routes = self._scan(chunk)
        self._prune()
        return routes

    def finish(self) -> list[RoutedMessage]:
        """End the stream; return messages completed by end-of-data."""
        return self._with_payload(self.finish_records())

    def finish_records(self, chunk: bytes = b"") -> list[RouteRecord]:
        """:meth:`finish` by span, a last ``chunk`` scanned with
        end-of-data in the same pass."""
        self._check_open()
        routes = self._scan(chunk, True)
        self._stream.close()
        self._finished = True
        return routes

    def peek_finish(self) -> list[RoutedMessage]:
        """Messages finishing now would add, without ending the stream.

        End-of-data is evaluated on a snapshot of the scan state, so
        feeding can continue afterwards — the mid-stream inspection
        point per-flow back-ends need.
        """
        records = self._stream.finish_packed_snapshot(
            self.router._select, array("q", self._carry)
        )
        return self._with_payload(self._assemble(records)[0])

    # ------------------------------------------------------------------
    def _scan(self, chunk: bytes, final: bool = False) -> list[RouteRecord]:
        self._buffer += chunk
        routes, self._service = self._assemble(self._stream.feed_packed(
            chunk, self.router._select, self._carry, final
        ))
        return routes

    def _assemble(self, records) -> tuple[list[RouteRecord], str | None]:
        """The same per-message state machine as :meth:`route`, over
        packed-sink records (flat ``unit, end, start`` ints), from the
        session's current service: the routes, and the service open
        after them.  A plain unit is the method name, whose lexeme is
        still in the retained buffer; a complemented one is the
        accepting hit, whose start is the message's.  The kernel's
        ``array`` of records is assembled in one kernel call; a list
        (the compiled engine's) runs this loop, its twin."""
        table = self.router.table
        if self._kernel is not None and records.__class__ is array:
            return self._kernel.assemble_routes(
                records,
                self._buffer,
                self._base,
                self._service,
                table.routes,
                table.default_port,
                RouteRecord,
            )
        base = self._base
        buffer = self._buffer
        service = self._service
        routes: list[RouteRecord] = []
        flat = iter(records)
        for unit, end, start in zip(flat, flat, flat):
            if unit >= 0:
                service = buffer[start - base : end - base].decode(
                    "utf-8", errors="replace"
                )
                continue
            routes.append(
                RouteRecord(
                    start,
                    end,
                    table.port_of(service)
                    if service is not None
                    else table.default_port,
                    service,
                )
            )
            service = None
        return routes, service

    def _with_payload(
        self, routes: list[RouteRecord]
    ) -> list[RoutedMessage]:
        """The routes with their bytes sliced from the retained buffer
        (so: before the next :meth:`_prune`)."""
        base = self._base
        buffer = self._buffer
        return [
            RoutedMessage(
                start, end, port, service,
                bytes(buffer[start - base : end - base]),
            )
            for start, end, port, service in routes
        ]

    def _prune(self) -> None:
        """Drop buffered bytes no future message can reference: before
        both the scanner's earliest in-flight match start and the open
        message's start."""
        keep = self._stream.low_watermark()
        if self._carry[0] and self._carry[1] < keep:
            keep = self._carry[1]
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
