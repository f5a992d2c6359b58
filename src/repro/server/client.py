"""Asyncio client library for the scan server's framed protocol.

:class:`ScanClient` owns one TCP connection — the same
:class:`~repro.server.protocol.FramedProtocol` a server connection is,
so replies are handled inside its read callback as zero-copy frames —
performs the versioned HELLO handshake, and multiplexes flows over it:

.. code-block:: python

    async with ScanClient(host, port) as client:
        flow = await client.open_flow()
        await flow.send(b"<methodCall>...")
        messages = await flow.finish()          # final merged results

Connection semantics:

* **connect/retry** — :meth:`connect` retries with exponential
  backoff (``connect_retries`` attempts, ``connect_timeout`` per
  attempt), so clients can start before the server finishes binding;
  a failed handshake closes its connection and leaves the client
  unconnected, and a refused one (an ERROR answering our HELLO) raises
  :class:`~repro.server.protocol.ServerFault` at once;
* **timeouts** — :meth:`ClientFlow.finish` waits at most
  ``request_timeout`` for the flow's final RESULT (each request has its
  own deadline; a connection keeps one timer, set for the earliest);
* **frame limits** — a flow's consecutive chunks are held and leave
  merged: the chunks of one loop turn as one DATA frame, split only to
  fit the *server's* advertised ``max_frame`` from its HELLO (the
  mirror of the server's one RESULT per read); frames received are
  bounded by the client's own ``max_frame``;
* **failure** — an ERROR frame addressed to a flow fails that flow's
  pending :meth:`~ClientFlow.finish` with
  :class:`~repro.server.protocol.ServerFault` and closes it — or
  fails just the one request, where the flow's kind survives the code
  (the lifecycle table in :mod:`repro.server.flows`, DESIGN.md §8,
  which also says which reply frames a flow is delivered); a
  connection-level ERROR or an unexpected close fails every pending
  flow;
* **payload by span** — the server reports each routed message as a
  span of the flow's bytes and sends no payload back: a scan flow
  keeps every chunk it was given (by reference) and
  :meth:`~ClientFlow.finish` slices the payloads out of them;
* **placement and failover** — a proxy's HELLO hands the client its
  ring, on which it places every flow itself, scan and beam (one
  lazily dialed link per member). Each placed flow keeps a journal: a
  scan its chunks, a beam its ops. On a lost link, ``DRAINING`` or
  ``IDLE_TIMEOUT`` the flow moves to the next member of its preference
  list: a scan is sent its journal again; a beam is sent its answered
  ops first, whose MASKS must hash to the digest of those already
  delivered, and only then the rest. With no member left, or a replay
  that differs, the flow fails with ``FAILOVER``.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import random

from repro.errors import ReproError
from repro.server import protocol
from repro.server.flows import (
    BEAM, KINDS, LIFECYCLE_CODES, SCAN, Flow, FlowTable, flow_id_of,
)
from repro.server.protocol import (
    CONNECTION_FLOW,
    DEFAULT_MAX_FRAME,
    ErrorCode,
    Frame,
    FrameType,
    FramedProtocol,
    PROTOCOL_VERSION,
    ProtocolError,
    ServerFault,
)
from repro.server.ring import HashRing

__all__ = [
    "BeamFlow",
    "ClientFlow",
    "ConnectFailed",
    "ScanClient",
]

#: DATA overhead inside a frame body: type byte + u32 flow id.
_DATA_OVERHEAD = 5

#: 2**64 / golden ratio, and the ring's 64 bits.
_GOLDEN, _MASK = 0x9E3779B97F4A7C15, (1 << 64) - 1

#: The frame types that reply to a flow, and those a raw tap sees
#: (every one of them leads with the u32 flow id).
_REPLIES = frozenset().union(*(kind.replies for kind in KINDS))
_TAPPED = _REPLIES | {FrameType.ERROR}


class ConnectFailed(ReproError):
    """Every connection attempt failed (after retries)."""


class ClientFlow(Flow):
    """One open flow on a client connection.

    The server streams RESULT frames while the flow is open; their
    record blocks accumulate in :attr:`blocks` as received, and
    :meth:`finish` returns the complete, ordered result list for the
    flow.
    """

    kind = SCAN
    #: Being placed on a ring member: chunks only join the journal.
    moving = False
    #: The client that put the flow on a ring member, if one did.
    placer: "ScanClient | None" = None

    def __init__(self, client: "ScanClient", flow_id: int) -> None:
        super().__init__(flow_id)
        self.client = client
        #: Every chunk given to :meth:`send`, by reference (do not
        #: mutate one afterwards): the bytes the results' spans point
        #: into.
        self.journal: list[bytes] = []
        #: The record blocks of the RESULT frames received so far,
        #: undecoded until :meth:`finish` (or :attr:`partial`).
        self.blocks: list[bytes] = []
        self._done: asyncio.Future = (
            asyncio.get_running_loop().create_future()
        )
        #: Beam requests awaiting their MASKS, oldest first.
        self._pending_masks: list[asyncio.Future] = []

    @property
    def partial(self) -> list:
        """The results received so far (routed ones as spans)."""
        return self._decode()

    def _decode(self, data: bytes | None = None) -> list:
        return [
            item
            for block in self.blocks
            for item in protocol.decode_result_block(block, data)
        ]

    # ------------------------------------------------------------------
    async def send(self, chunk: bytes) -> None:
        """Stream one chunk of flow bytes. Returning means the chunk is
        queued or held, not that it left: the connection holds it
        behind the flow's earlier ones, and what it holds leaves as
        DATA frames (split to the server's frame limit) once another
        frame is queued or the loop turn ends — so the chunks a turn
        sends leave merged, while a caller that awaits something else
        between chunks sends a frame each. Once 64 KiB wait, here or
        in the transport, this suspends until they drained, so server
        backpressure lands here as pacing."""
        self.journal.append(chunk)
        if self.moving:
            return  # the placement sends the journal
        out = self.client._link()
        out.hold_for(self.flow_id, [chunk], len(chunk))
        if out.backed_up:
            await out.pace()

    async def finish(self, timeout: float | None = None) -> list:
        """End the flow; wait for (and return) its complete results,
        each routed message with its payload sliced from the bytes
        this flow sent."""
        self.finishing = True
        if not self.moving:  # else the placement sends it
            self.client._link().queue(
                protocol.encode_finish_flow(self.flow_id)
            )
        return await self._reply(self._done, timeout, "final RESULT", True)

    async def _reply(self, fut, timeout, what: str, forget: bool = False):
        """Write what is queued (the request is in it) and wait for
        its reply future, ``request_timeout`` by default. The deadline
        joins the connection's (:attr:`ScanClient._waits`), whose one
        timer moves only for a deadline that comes first. A timed-out
        request's future stays queued, so the late reply still pops it
        and later replies keep resolving FIFO; with ``forget`` the flow
        is closed on expiry and a late reply is dropped."""
        out = self.client._out
        if out is not None:  # else: closed under us, ``fut`` has failed
            out.push()
        # A placed flow's deadline stays with its placer: it outlives
        # the member link the flow may move off.
        client = self.placer or self.client
        if timeout is None:
            timeout = client.request_timeout
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        client._waits[fut] = (deadline, self, what, timeout, forget)
        timer = client._deadline
        if timer is None or deadline < timer.when():
            if timer is not None:
                timer.cancel()
            client._deadline = loop.call_at(deadline, client._on_deadline)
        try:
            return await fut
        finally:
            client._waits.pop(fut, None)

    # ------------------------------------------------------------------
    def _on_reply(self, frame: Frame) -> bool:
        """Take a reply frame the flow table delivered; True when it
        was the flow's last (the final RESULT), whose arrival resolves
        :meth:`finish` with the flow's results, decoded here."""
        _flow_id, final, block = protocol.split_result(frame)
        self.blocks.append(bytes(block))  # a view would pin its read
        if final and not self._done.done():
            try:
                self._done.set_result(self._decode(b"".join(self.journal)))
            except ProtocolError as exc:
                self._done.set_exception(exc)
        return final

    def _fail_request(self, exc: Exception) -> None:
        """Fail only the oldest pending request (an ERROR the flow's
        kind survives: nothing moved server-side, the flow stays
        usable)."""
        if self._pending_masks:
            fut = self._pending_masks.pop(0)
            if not fut.done():
                fut.set_exception(exc)

    def _fail(self, exc: Exception) -> None:
        """The flow is dead: fail :meth:`finish` and every request."""
        if not self._done.done():
            self._done.set_exception(exc)
        for fut in self._pending_masks:
            if not fut.done():
                fut.set_exception(exc)
        self._silence()
        self._pending_masks.clear()

    def _silence(self) -> None:
        """Mark this flow's failures retrieved. After one, nobody may
        ever await ``_done`` (beam callers await per-request
        futures; a caller may abandon the flow), which would otherwise log
        'Future exception was never retrieved'. Retrieval does not
        clear it: a later ``finish()`` still raises."""
        for fut in (self._done, *self._pending_masks):
            if fut.done() and not fut.cancelled():
                fut.exception()


class _PlacedFlow(ClientFlow):
    """A scan flow (a beam as :class:`_PlacedBeam`) ``placer`` put on
    ring member ``member`` (its link is ``client``); ``point``: where on the ring its preference list starts
    (the same at every placement); ``excluded``: members lost since its
    last placement."""

    def __init__(self, placer: "ScanClient") -> None:
        super().__init__(placer, 0)
        self.placer = placer
        # Fibonacci hashing of the placer's flow count: no string hashed.
        self.point = (placer.allocate_flow_id() * _GOLDEN + placer._salt) & _MASK
        self.member: str | None = None
        self.excluded: set[str] = set()
        self.moving = True

    def _resend(self, out: "_Link") -> None:
        """Bring the member the flow was just placed on up to date:
        OPEN_FLOW, the journal and, once finishing, FINISH_FLOW."""
        fid = self.flow_id
        out.queue(protocol.encode_open_flow(fid))
        if self.journal:
            out.hold_for(fid, list(self.journal), sum(map(len, self.journal)))
        if self.finishing:
            out.queue(protocol.encode_finish_flow(fid))

    def _fail(self, exc: Exception) -> None:
        if not self.placer._move(self, exc):
            super()._fail(exc)


class BeamFlow(ClientFlow):
    """One open *beam* flow: a whole decode beam behind one round
    trip per step. A single decode is a beam of width 1:
    ``advance([token_id])`` returns ``((state,), [row])``.

    Every request (:meth:`advance`, :meth:`fork`, :meth:`rollback`)
    is answered by exactly one MASKS frame carrying all lanes' states
    and masks; delta-encoded lanes are patched against the rows from
    the previous reply, so :attr:`rows` always holds every lane's
    full packed mask. A ``BAD_TOKEN`` server error fails only the
    request that caused it — the beam did not move (the engine is
    atomic) and the flow stays open.
    """

    kind = BEAM

    def __init__(self, client: "ScanClient", flow_id: int) -> None:
        super().__init__(client, flow_id)
        #: Per-lane automaton states from the most recent MASKS reply.
        self.states: tuple[int, ...] = ()
        #: Per-lane packed mask rows (full, after delta patching).
        self.rows: list[bytes] = []
        #: Wire accounting over this flow's MASKS replies.
        self.lanes_full = 0
        self.lanes_delta = 0
        self.payload_bytes = 0

    @property
    def width(self) -> int:
        return len(self.states)

    async def _request(
        self, frame_bytes: bytes, timeout: float | None, forget: bool = False
    ) -> tuple[tuple[int, ...], list[bytes]]:
        fut = asyncio.get_running_loop().create_future()
        self._pending_masks.append(fut)
        await self.client._send(frame_bytes)
        return await self._reply(fut, timeout, "MASKS reply", forget)

    async def advance(
        self, token_ids, timeout: float | None = None
    ) -> tuple[tuple[int, ...], list[bytes]]:
        """Feed one token id per lane; return ``(states, rows)``."""
        return await self._request(
            protocol.encode_batch_advance(
                self.flow_id, protocol.BeamOp.ADVANCE, list(token_ids)
            ),
            timeout,
        )

    async def fork(
        self, lane: int, timeout: float | None = None
    ) -> tuple[tuple[int, ...], list[bytes]]:
        """Duplicate ``lane``; the beam grows by one lane."""
        return await self._request(
            protocol.encode_batch_advance(
                self.flow_id, protocol.BeamOp.FORK, lane
            ),
            timeout,
        )

    async def rollback(
        self, k: int = 1, timeout: float | None = None
    ) -> tuple[tuple[int, ...], list[bytes]]:
        """Undo the last ``k`` advances/forks beam-wide."""
        return await self._request(
            protocol.encode_batch_advance(
                self.flow_id, protocol.BeamOp.ROLLBACK, k
            ),
            timeout,
        )

    async def close(self, timeout: float | None = None) -> None:
        """End the beam flow (server drops the session)."""
        await self.finish(timeout=timeout)

    # ------------------------------------------------------------------
    def _on_reply(self, frame: Frame) -> bool:
        if frame.type == FrameType.RESULT:
            return super()._on_reply(frame)
        states, rows, n_full, n_delta, body_bytes = protocol.apply_masks(
            frame, self.rows
        )
        self.states = states
        self.rows = rows
        self.lanes_full += n_full
        self.lanes_delta += n_delta
        self.payload_bytes += body_bytes
        if self._pending_masks:
            fut = self._pending_masks.pop(0)
            if not fut.done():
                fut.set_result((states, rows))
        return False


def _readdress(frame: bytes, flow_id: int) -> bytes:
    """An encoded flow frame with its flow id (past the length and
    type) replaced."""
    return frame[:5] + flow_id.to_bytes(4, "big") + frame[9:]


class _PlacedBeam(_PlacedFlow, BeamFlow):
    """A beam ``placer`` put on a ring member. ``journal`` holds its
    opener and every op since, as sent (a placement re-addresses
    them); the member answered ``journal[:answered]`` with the MASKS
    ``digest`` hashes past the flow id. A member it moves to is sent
    that answered prefix first; while ``replaying`` of those replies
    are owed, they are hashed, not delivered, and must come to the same
    digest. Only then does the member get the rest."""

    def __init__(self, placer: "ScanClient") -> None:
        super().__init__(placer)
        self.answered = self.replaying = 0
        self.digest = hashlib.sha256()
        self.replayed = None

    async def _request(
        self, frame_bytes: bytes, timeout: float | None, forget: bool = False
    ) -> tuple[tuple[int, ...], list[bytes]]:
        fut = asyncio.get_running_loop().create_future()
        self._pending_masks.append(fut)
        self.journal.append(frame_bytes)
        if not self.moving:
            await self.client._send(frame_bytes)
        elif self.member is None:  # the opener: the first placement
            await self.placer._place(self)
        return await self._reply(fut, timeout, "MASKS reply", forget)

    def _resend(self, out: "_Link") -> None:
        """Replay the answered prefix (all of the journal on a first
        placement, which has none)."""
        self.replaying = self.answered
        if not self.replaying:
            self._send_from(out, 0)
            return
        self.moving, self.replayed = True, hashlib.sha256()
        fid = self.flow_id
        out.queue(*(_readdress(op, fid) for op in self.journal[: self.answered]))

    def _send_from(self, out: "_Link", start: int) -> None:
        """Send ``journal[start:]`` and, once finishing, FINISH_FLOW."""
        fid = self.flow_id
        out.queue(*(_readdress(op, fid) for op in self.journal[start:]))
        if self.finishing:
            out.queue(protocol.encode_finish_flow(fid))

    def _on_reply(self, frame: Frame) -> bool:
        if frame.type == FrameType.MASKS:
            body = memoryview(frame.payload)[4:]
            if self.replaying:
                self.replayed.update(body)
                self.replaying -= 1
                if self.replaying:
                    return False
                if self.replayed.digest() == self.digest.digest():
                    self.moving = False
                    self._send_from(self.client._link(), self.answered)
                    return False
                self._abandon()
                self._fail(ServerFault(
                    self.flow_id, ErrorCode.FAILOVER,
                    "replayed masks differ from those already delivered",
                ))
                return True
            self.answered += 1
            self.digest.update(body)
        return super()._on_reply(frame)

    def _abandon(self) -> None:
        """Leave the member's flow (its late replies are dropped)."""
        self.client._table.close(self)
        self.client._link().queue(protocol.encode_finish_flow(self.flow_id))

    def _fail_request(self, exc: Exception) -> None:
        if self.replaying:  # a replayed op was refused: not the history
            self._abandon()
            self._fail(exc)
        else:  # the refused op moved nothing: no replay re-sends it
            del self.journal[self.answered]
            super()._fail_request(exc)

    def _fail(self, exc: Exception) -> None:
        code = getattr(exc, "code", None)
        if self.replaying and code is not None and code not in LIFECYCLE_CODES:
            exc = ServerFault(
                self.flow_id, ErrorCode.FAILOVER, f"replay refused: {exc}"
            )
        super()._fail(exc)


class _Link(FramedProtocol):
    """A client's connection: every frame goes to the client (None
    once the client gave the connection up)."""

    def __init__(self, client: "ScanClient") -> None:
        super().__init__(client.max_frame)
        self.client: ScanClient | None = client

    def frame_received(self, frame: Frame) -> None:
        if self.client is not None:
            self.client._on_frame(self, frame)

    def _encode_held(self, flow_id: int, chunks: list) -> list[bytes]:
        """A flow's held chunks as DATA frames, their bytes joined and
        split to the server's frame limit."""
        data = b"".join(chunks)
        limit = max(1, self.peer_max_frame - _DATA_OVERHEAD)
        return [
            protocol.encode_data(flow_id, data[start : start + limit])
            for start in range(0, len(data), limit)
        ]

    def failed(self, exc: Exception) -> None:
        if self.client is not None:
            self.client._lost(self, exc)
        self.close()

    def connection_lost(self, exc) -> None:
        super().connection_lost(exc)
        if self.client is not None:
            self.client._lost(
                self,
                exc or ConnectionResetError("server closed the connection"),
            )


class ScanClient:
    """One framed-protocol connection multiplexing many flows."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 9431,
        *,
        connect_timeout: float = 5.0,
        connect_retries: int = 5,
        retry_backoff: float = 0.05,
        max_backoff: float = 2.0,
        request_timeout: float = 30.0,
        max_frame: int = DEFAULT_MAX_FRAME,
    ) -> None:
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.connect_retries = connect_retries
        self.retry_backoff = retry_backoff
        self.max_backoff = max_backoff
        self.request_timeout = request_timeout
        self.max_frame = max_frame
        #: The server's advertised frame limit (from its HELLO).
        self.server_max_frame = DEFAULT_MAX_FRAME
        #: Registry refs the server advertised in its HELLO (empty for
        #: servers without a grammar registry).
        self.server_grammars: tuple[str, ...] = ()
        #: A proxy's ring as its last HELLO listed it (None: no proxy),
        #: and the dial of each member's link, by ``host:port``.
        self._ring: HashRing | None = None
        self._members: dict[str, asyncio.Future] = {}
        #: Flows put on a member, those moved off a lost one, and
        #: requests that timed out.
        self.placements = self.failovers = self.timeouts = 0
        #: Replies awaited on this connection (future -> deadline and
        #: request), the one timer that expires them, and where this
        #: client's flows start on a ring.
        self._waits: dict[asyncio.Future, tuple] = {}
        self._deadline: asyncio.TimerHandle | None = None
        self._salt = random.getrandbits(64)

        #: The connection (None until connected, and after close): it
        #: reads, and writes through the same corked queue a server
        #: connection does.
        self._out: _Link | None = None
        #: What the handshake waits on, while it does.
        self._hello: asyncio.Future | None = None
        self._table = FlowTable()
        #: The table's open flows, by flow id.
        self._flows: dict[int, ClientFlow] = self._table.flows
        #: Raw frame taps: flow id -> async callable. A tap receives
        #: every reply frame addressed to its flow *undecoded* (or
        #: ``None`` when the connection dies), bypassing the flow
        #: objects entirely — the hook the ledger's traced beam
        #: (``benchmarks/ledger/load.py``) times each step's wire with.
        self._raw_taps: dict = {}
        self._flow_seq = 0
        self._goodbye = asyncio.Event()
        self._conn_error: Exception | None = None

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------
    async def connect(self) -> "ScanClient":
        """Dial with retry/backoff, then handshake. Raises
        :class:`ConnectFailed` once the retry budget is spent, and a
        refused handshake's :class:`ServerFault` at once."""
        last: Exception | None = None
        backoff = self.retry_backoff
        loop = asyncio.get_running_loop()
        for _attempt in range(max(1, self.connect_retries)):
            hello = self._hello = loop.create_future()
            try:
                _transport, self._out = await asyncio.wait_for(
                    loop.create_connection(
                        lambda: _Link(self), self.host, self.port
                    ),
                    timeout=self.connect_timeout,
                )
                self._out.queue(
                    protocol.encode_hello(PROTOCOL_VERSION, self.max_frame)
                )
                self._out.push()
                await asyncio.wait_for(hello, self.connect_timeout)
                return self
            except (OSError, asyncio.TimeoutError, ProtocolError) as exc:
                last = exc
                self._unconnect()
                await asyncio.sleep(self._next_backoff(backoff))
                backoff = min(backoff * 2, self.max_backoff)
            except BaseException:
                self._unconnect()
                raise
            finally:
                self._hello = None
        raise ConnectFailed(
            f"could not connect to {self.host}:{self.port} after "
            f"{self.connect_retries} attempts: {last}"
        )

    def _unconnect(self) -> None:
        """A handshake that failed: close its connection, so the
        client is not :attr:`connected`."""
        link, self._out = self._out, None
        if link is not None:
            link.client = None
            link.close()

    def _next_backoff(self, backoff: float) -> float:
        """Cap the doubled backoff and spread it ±25 % so a fleet of
        clients retrying against a flapping backend desynchronizes
        instead of stampeding in lockstep."""
        capped = min(backoff, self.max_backoff)
        return capped * (0.75 + 0.5 * random.random())

    def _greet(self, link: _Link, frame: Frame) -> None:
        """The server's first frame: its HELLO, or why the handshake
        failed. Done before any frame behind it is handled."""
        if frame.type == FrameType.ERROR:
            flow, code, message = protocol.decode_error(frame)
            raise ServerFault(flow, code, message)
        if frame.type != FrameType.HELLO:
            raise ProtocolError(f"expected HELLO, got {frame.name}")
        version, server_max = protocol.decode_hello(frame)
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"server speaks protocol v{version}, "
                f"client v{PROTOCOL_VERSION}",
                code=ErrorCode.VERSION_MISMATCH,
            )
        self.server_max_frame = link.peer_max_frame = server_max
        self._read_lists(frame)

    def _read_lists(self, frame: Frame) -> None:
        self.server_grammars, ring = protocol.decode_hello_lists(frame)
        if ring is not None:
            self._ring = HashRing(ring)

    async def close(self) -> None:
        """Polite GOODBYE (waits briefly for the server's), then close
        — the member links too."""
        out, self._out = self._out, None
        if out is not None:
            if self._conn_error is None:
                with contextlib.suppress(Exception):
                    out.queue(protocol.encode_goodbye())
                    out.push()
                    await asyncio.wait_for(self._goodbye.wait(), timeout=2.0)
            out.close()
            with contextlib.suppress(Exception):
                await out.wait_closed()
            self._fail_pending(ConnectionResetError("client closed"))
        self._ring = None  # nothing is placed any more
        for name in list(self._members):
            await self.unlink(name)
        if self._deadline is not None:  # every wait on it has failed
            self._deadline.cancel()
            self._deadline = None

    async def __aenter__(self) -> "ScanClient":
        return await self.connect()

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.close()
        return False

    @property
    def connected(self) -> bool:
        out, dead = self._out, self._conn_error
        return out is not None and not out.closed and dead is None

    # ------------------------------------------------------------------
    # flow API
    # ------------------------------------------------------------------
    async def open_flow(self) -> ClientFlow:
        """Open a fresh scan flow: on a ring member when connected to
        a proxy, else on this connection (id chosen here)."""
        if self._ring is not None:
            flow = _PlacedFlow(self)
            await self._place(flow)
            return flow
        flow = ClientFlow(self, self.allocate_flow_id())
        self._table.open(flow)
        await self._send(protocol.encode_open_flow(flow.flow_id))
        return flow

    async def open_beam_flow(
        self,
        vocab_hash: "bytes | str",
        width: int,
        timeout: float | None = None,
    ) -> BeamFlow:
        """Open a constrained-decoding flow of ``width`` lanes (1 for
        a single decode) for ``vocab_hash``.

        Waits for the server's initial MASKS frame, so the returned
        flow already has every lane's state (0) and packed mask in
        :attr:`BeamFlow.states` / :attr:`BeamFlow.rows`. Raises
        :class:`~repro.server.protocol.ServerFault` with
        ``UNKNOWN_VOCAB`` when the server has no mask table for the
        vocabulary, ``FRAME_TOO_LARGE`` when ``width`` full rows would
        not fit this client's ``max_frame``. Placed on a ring member
        when connected to a proxy, as :meth:`open_flow` places a scan.
        """
        if self._ring is not None:
            flow: BeamFlow = _PlacedBeam(self)
        else:
            flow = BeamFlow(self, self.allocate_flow_id())
            self._table.open(flow)
        opener = protocol.encode_open_beam(flow.flow_id, width, vocab_hash)
        await flow._request(opener, timeout, forget=True)
        return flow

    # ------------------------------------------------------------------
    # raw flow plumbing (the ledger's traced beam)
    # ------------------------------------------------------------------
    def allocate_flow_id(self) -> int:
        """Reserve a fresh connection-scoped flow id without creating
        a flow object — for callers that speak raw frames."""
        self._flow_seq += 1
        return self._flow_seq

    def set_raw_tap(self, flow_id: int, handler) -> None:
        """Route reply frames for ``flow_id`` to ``handler(frame)``
        (an async callable, started inside the read callback: while one
        is suspended, the frames behind it wait) instead of the flow
        machinery; the handler is called with ``None`` once if the
        connection fails or says GOODBYE while the tap is installed."""
        self._raw_taps[flow_id] = handler

    def clear_raw_tap(self, flow_id: int) -> None:
        self._raw_taps.pop(flow_id, None)

    async def send_raw(self, frame_bytes: bytes) -> None:
        """Write one pre-encoded frame (raw-tap counterpart of the
        flow-level send methods)."""
        await self._send(frame_bytes)

    async def scan_stream(
        self, data: bytes, chunk_size: int = 4096
    ) -> list:
        """Convenience: one whole byte stream through one flow."""
        flow = await self.open_flow()
        for start in range(0, len(data), chunk_size):
            await flow.send(data[start : start + chunk_size])
        return await flow.finish()

    # ------------------------------------------------------------------
    # placement on a proxy's ring
    # ------------------------------------------------------------------
    async def _place(self, flow: _PlacedFlow) -> None:
        """Put ``flow`` on the first member of its preference list it
        was not lost on, and bring that member up to date
        (:meth:`_PlacedFlow._resend`, the one part that differs by
        kind): its first placement and every failover. On a live link
        it does not suspend; a member that cannot be dialed is passed
        over; none left fails the flow (FAILOVER)."""
        ring, member = self._ring, None
        for name in ring.preference(flow.point) if ring is not None else ():
            if self._ring is None:
                break  # closed while this placement dialed
            if name not in flow.excluded:
                try:
                    member = self._live(name) or await self.member(name)
                    out = member._link()
                    break
                except (OSError, ReproError):
                    member = None
                    flow.excluded.add(name)
        if self._ring is None:
            flow._fail(ConnectionResetError("client closed"))
            return
        if member is None:
            flow._fail(ServerFault(
                flow.flow_id, ErrorCode.FAILOVER,
                f"no healthy ring member left for {flow.kind} flow "
                f"{flow.point:x}",
            ))
            return
        self.placements += 1
        if flow.member is not None:
            self.failovers += 1
        flow.client, flow.member, flow.moving = member, name, False
        flow.flow_id = member.allocate_flow_id()
        member._table.open(flow)
        flow.excluded.clear()
        flow._resend(out)

    async def member(self, name: str) -> "ScanClient":
        """The link to cluster member ``name`` (``host:port``), dialed —
        once, however many callers wait for it — when there is none or
        it died: how a client reaches its ring."""
        dial = self._members.get(name)
        if dial is None or dial.done() and not self.linked(name):
            host, _, port = name.rpartition(":")
            member = type(self)(
                host, int(port), connect_timeout=self.connect_timeout,
                connect_retries=2, retry_backoff=self.retry_backoff,
                request_timeout=self.request_timeout,
                max_frame=self.max_frame,
            )
            dial = self._members[name] = asyncio.ensure_future(
                member.connect()
            )
        # A future per waiter: before 3.12 two placements' first steps
        # (outside any task) may not await one pending future.
        return await asyncio.shield(dial)

    def linked(self, name: str) -> bool:
        """The link to member ``name`` is up."""
        return self._live(name) is not None

    def _live(self, name: str) -> "ScanClient | None":
        """The link to member ``name`` if it is up."""
        dial = self._members.get(name)
        if dial is None or not dial.done() or dial.exception():
            return None
        member = dial.result()
        return member if member.connected else None

    async def unlink(self, name: str) -> None:
        """Close the link to member ``name`` (its flows move or fail)."""
        dial = self._members.pop(name, None)
        if dial is not None:
            with contextlib.suppress(Exception):
                await (await dial).close()

    def _move(self, flow: _PlacedFlow, exc: Exception) -> bool:
        """``flow`` failed with ``exc``: if that lost its member (not
        just the link, on ``IDLE_TIMEOUT``) and the flow is still
        wanted, drop its results and place it again (True)."""
        code = getattr(exc, "code", None)
        if flow._done.done() or self._ring is None or not (
            isinstance(exc, OSError) or code in LIFECYCLE_CODES
        ):
            return False
        if code != ErrorCode.IDLE_TIMEOUT:
            flow.excluded.add(flow.member)
        flow.blocks.clear()
        flow.moving = True
        protocol.start_eagerly(self._place(flow))
        return True

    # ------------------------------------------------------------------
    def _on_deadline(self) -> None:
        """The connection's one deadline timer: fail every request past
        its deadline, then look again at the earliest left, if any."""
        loop = asyncio.get_running_loop()
        now, nearest = loop.time(), None
        self._deadline = None
        for fut, wait in list(self._waits.items()):
            deadline, flow, what, timeout, forget = wait
            if fut.done():
                continue
            if deadline > now:
                nearest = min(deadline, nearest or deadline)
                continue
            self.timeouts += 1
            if forget:
                flow.client._table.close(flow)
            fut.set_exception(TimeoutError(
                f"flow {flow.flow_id}: no {what} within {timeout:g}s"
            ))
        if nearest is not None:
            self._deadline = loop.call_at(nearest, self._on_deadline)

    def _link(self) -> _Link:
        """The live connection, or what killed it raised."""
        out = self._out
        if out is None:
            raise ConnectionResetError("client not connected")
        if self._conn_error is not None:
            raise self._conn_error
        if out.error is not None:
            raise out.error
        return out

    async def _send(self, frame_bytes: bytes) -> None:
        """Queue one encoded frame (:class:`FramedProtocol` says when
        it leaves); raises what killed the connection if something
        did."""
        out = self._link()
        out.queue(frame_bytes)
        if out.backed_up:
            await out.pace()

    def _on_frame(self, link: _Link, frame: Frame) -> None:
        """Route one frame from the server to its flow."""
        if self._hello is not None:
            hello, self._hello = self._hello, None
            try:
                self._greet(link, frame)
            except Exception as exc:
                self._unconnect()
                if not hello.done():
                    hello.set_exception(exc)
            else:
                if not hello.done():
                    hello.set_result(None)
            return
        if self._raw_taps and frame.type in _TAPPED:
            tap = self._raw_taps.get(flow_id_of(frame))
            if tap is not None:
                link.run(tap(frame))
                return
        if frame.type in _REPLIES:
            flow = self._table.reply(frame)
            if flow is not None and flow._on_reply(frame):
                self._table.close(flow)
        elif frame.type == FrameType.HELLO:
            self._read_lists(frame)
        elif frame.type == FrameType.ERROR:
            flow_id, code, message = protocol.decode_error(frame)
            fault = ServerFault(flow_id, code, message)
            if flow_id == CONNECTION_FLOW:
                raise fault
            flow = self._flows.get(flow_id)
            if flow is not None:
                if self._table.fault(flow, code):
                    flow._fail(fault)
                else:
                    flow._fail_request(fault)
        elif frame.type == FrameType.GOODBYE:
            # Flows still pending after a GOODBYE can never complete:
            # fail them rather than letting their finish() sit out its
            # full timeout. The GOODBYE also ends the connection's
            # useful life, so later sends fail fast instead of timing
            # out (pools key reconnects off :attr:`connected`).
            self._lost(
                link,
                ConnectionResetError("server said GOODBYE"),
                ConnectionResetError(
                    "server said GOODBYE with flows pending"
                ),
            )
            link.close()
        else:
            raise ProtocolError(
                f"unexpected {frame.name} frame from server"
            )

    def _lost(self, link: _Link, exc: Exception, pending=None) -> None:
        """``link`` is dead (``exc`` says why): fail the handshake, or
        every flow and tap (with ``pending``, if given)."""
        if self._hello is not None:
            hello, self._hello = self._hello, None
            if not hello.done():
                hello.set_exception(
                    ProtocolError(f"server closed during handshake: {exc}")
                )
            return
        if self._conn_error is None:
            self._conn_error = exc
        self._fail_pending(pending or exc)
        self._goodbye.set()

    def _fail_pending(self, exc: Exception) -> None:
        for flow in list(self._flows.values()):
            flow._fail(exc)
        self._flows.clear()
        for tap in list(self._raw_taps.values()):
            # Notify taps off-loop: _fail_pending is synchronous and
            # runs from the dying connection's callbacks.
            asyncio.ensure_future(_notify_tap_dead(tap))
        self._raw_taps.clear()


async def _notify_tap_dead(tap) -> None:
    with contextlib.suppress(Exception):
        await tap(None)
