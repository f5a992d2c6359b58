"""The connection-accepting half of every framed-protocol listener.

:class:`FramedEndpoint` is what :class:`~repro.server.server.ScanServer`
and :class:`~repro.server.cluster.ScanProxy` have in common: the data
and admin listeners and their lifecycle, the HELLO/version handshake,
the idle deadline, the frame handler that asks the connection's
:class:`~repro.server.flows.FlowTable` about every inbound frame (and
answers a refusal with its ERROR), the drain on
:meth:`~FramedEndpoint.stop`, and the minimal HTTP/1.0 admin
responder. Every accepted connection is one :class:`Connection` — the
shared :class:`~repro.server.protocol.FramedProtocol` — whose frames
are handled inside its read callback, by plain functions that queue
their replies. The two endpoints differ by a metric prefix
(:attr:`role`), an admin route table, and what they do with a frame
once the table accepted it (:meth:`_open` / :meth:`_op`).
"""

from __future__ import annotations

import asyncio
import contextlib
import time

from repro.server import protocol
from repro.server.flows import OPENERS, Flow, FlowKind, FlowTable, Refused
from repro.server.protocol import (
    CONNECTION_FLOW,
    ErrorCode,
    Frame,
    FrameType,
    FramedProtocol,
    PROTOCOL_VERSION,
    ProtocolError,
)
from repro.service.metrics import MetricsRegistry

__all__ = ["Connection", "FramedEndpoint", "reap"]


async def reap(task: asyncio.Task | None) -> None:
    """Cancel a background task and wait until it is gone. The cancel
    is re-sent until it lands: before Python 3.12 ``asyncio.wait_for``
    swallows a cancellation that arrives as its inner future
    completes, and a loop that probes sockets under ``wait_for`` would
    then sleep on, un-cancelled, forever."""
    while task is not None and not task.done():
        task.cancel()
        await asyncio.wait([task], timeout=0.1)


class Connection(FramedProtocol):
    """One accepted connection: its flow table, its two halves and its
    idle deadline. It stops reading while its transport is paused for
    writing: a peer that does not read stops us reading."""

    def __init__(self, endpoint: "FramedEndpoint", conn_id: int) -> None:
        super().__init__(endpoint.max_frame, endpoint.write_high_water)
        self.endpoint = endpoint
        self.conn_id = conn_id
        self.table = FlowTable()
        #: The table's open flows, by connection-scoped flow id.
        self.flows = self.table.flows
        self.greeted = False
        #: When the connection will have waited ``idle_timeout`` for a
        #: frame, and the one timer that checks it.
        self.idle_at = time.monotonic() + endpoint.idle_timeout
        self.idle_timer: asyncio.TimerHandle | None = None

    def connection_lost(self, exc) -> None:
        super().connection_lost(exc)
        self.endpoint._teardown(self)

    def received(self, frames: int, nbytes: int) -> None:
        # A frame dribbled in over several reads completes in the last
        # one: only a complete frame pushes the deadline out.
        endpoint = self.endpoint
        now = endpoint._last_rx = time.monotonic()
        self.idle_at = now + endpoint.idle_timeout
        endpoint._rx_reads.inc()
        endpoint._rx_frames.inc(frames)
        endpoint._rx_bytes.inc(nbytes)

    def frame_received(self, frame: Frame) -> None:
        self.endpoint._frame(self, frame)

    def failed(self, exc: Exception) -> None:
        self.endpoint._failed(self, exc)

    def pause_writing(self) -> None:
        super().pause_writing()
        self.hold()

    def resume_writing(self) -> None:
        if self.paused:
            self.release()
        super().resume_writing()

    def release(self) -> None:
        super().release()
        self.idle_at = time.monotonic() + self.endpoint.idle_timeout

    def _encode_held(self, flow_id: int, items: list) -> list[bytes]:
        # Only the scan server's handlers hold anything (its DATA).
        return self.endpoint._held_frames(self, flow_id, items)

    def _wrote(self, frames: int, nbytes: int) -> None:
        endpoint = self.endpoint
        endpoint._tx_frames.inc(frames)
        endpoint._tx_writes.inc()
        endpoint._tx_bytes.inc(nbytes)

    def send_error(self, flow_id: int, code: int, message: str) -> None:
        self.endpoint._errors_sent.inc()
        self.queue(protocol.encode_error(flow_id, code, message))


class FramedEndpoint:
    """A framed-protocol listener (plus optional admin listener)."""

    #: Metric prefix, and what the endpoint calls itself in errors.
    role = "endpoint"

    def __init__(
        self,
        host: str,
        port: int,
        *,
        admin_port: int | None,
        idle_timeout: float,
        max_frame: int,
        metrics: MetricsRegistry | None,
        write_high_water: int = 1 << 16,
    ) -> None:
        self.host = host
        self.port = port
        self.admin_port = admin_port
        self.idle_timeout = idle_timeout
        self.max_frame = max_frame
        self.write_high_water = write_high_water
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Per-frame metrics, looked up once.
        counter = self.metrics.counter
        self._rx_reads = counter(f"{self.role}.rx.reads")
        self._rx_frames = counter(f"{self.role}.rx.frames")
        self._rx_bytes = counter(f"{self.role}.rx.bytes")
        self._tx_frames = counter(f"{self.role}.tx.frames")
        self._tx_writes = counter(f"{self.role}.tx.writes")
        self._tx_bytes = counter(f"{self.role}.tx.bytes")
        self._errors_sent = counter(f"{self.role}.errors.sent")
        #: ``path -> async (method, query) -> (status line, body)``.
        self._admin_routes: dict = {}
        self._server: asyncio.AbstractServer | None = None
        self._admin_server: asyncio.AbstractServer | None = None
        self._connections: dict[int, Connection] = {}
        self._conn_seq = 0
        self._draining = False
        self._stopped = asyncio.Event()
        #: last frame arrival: drain waits for rx quiescence, so
        #: frames already on the wire when stop() is called still
        #: reach their flows before connections close.
        self._last_rx = time.monotonic()

    # ------------------------------------------------------------------
    # what a subclass fills in
    # ------------------------------------------------------------------
    def grammar_refs(self) -> tuple[str, ...]:
        """Registry refs advertised in this endpoint's HELLO."""
        return ()

    def hello_ring(self) -> tuple[str, ...] | None:
        """The ring this endpoint's HELLO hands out (None: none)."""
        return None

    def _redirect(self, kind: FlowKind) -> str | None:
        """Where flows of ``kind`` open instead (None: here)."""
        return None

    def _at_quota(self) -> str | None:
        """Why no new flow fits right now (None: one does)."""
        return None

    def _open(
        self, conn: Connection, kind: FlowKind, flow_id: int, frame: Frame
    ) -> None:
        """An admitted opening frame: build the flow and open it in
        ``conn.table`` (or refuse it for a reason of one's own)."""
        raise NotImplementedError

    def _op(self, conn: Connection, flow: Flow, frame: Frame) -> None:
        """An op frame its open flow accepts."""
        raise NotImplementedError

    def _drop(self, conn: Connection, flow: Flow) -> None:
        """Release what a flow that closed unfinished was holding."""

    def _busy(self, conn: Connection) -> bool:
        """Accepted work on ``conn`` whose reply is still owed."""
        return False

    def _work_in_flight(self) -> bool:
        """What a graceful drain waits for: replies owed, and frames
        waiting behind a coroutine on their connection's frame path."""
        return any(
            conn.running or self._busy(conn)
            for conn in self._connections.values()
        )

    async def _shutdown(self, drain: bool) -> None:
        """Stop background tasks and backends (connections are closed)."""

    # ------------------------------------------------------------------
    # listener lifecycle
    # ------------------------------------------------------------------
    async def start(self):
        """Bind the data (and optional admin) listeners."""
        self._server = await asyncio.get_running_loop().create_server(
            self._accept, self.host, self.port
        )
        if self.admin_port is not None:
            self._admin_server = await asyncio.start_server(
                self._handle_admin, self.host, self.admin_port
            )
        return self

    @staticmethod
    def _bound(listener, what: str) -> tuple[str, int]:
        sockets = listener.sockets if listener else ()
        if not sockets:
            raise RuntimeError(f"{what} not started")
        return sockets[0].getsockname()[:2]

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolves port 0 to the real one."""
        return self._bound(self._server, self.role)

    @property
    def admin_address(self) -> tuple[str, int]:
        return self._bound(self._admin_server, "admin listener")

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` is called (from a signal handler,
        another task, or a test)."""
        await self._stopped.wait()

    async def __aenter__(self):
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.stop(drain=exc_type is None)
        return False

    async def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Graceful shutdown: stop accepting, refuse new flows with
        ``ERROR(DRAINING)``, let accepted work complete (its replies
        are delivered), say GOODBYE, close.

        With ``drain=False`` (or on drain timeout) connections are cut
        without flushing.
        """
        if self._stopped.is_set():
            return
        self._draining = True
        for listener in (self._server, self._admin_server):
            if listener is not None:
                listener.close()
        if drain:
            # Quiescence, not just emptiness: frames already in flight
            # (written but not yet read off the socket) would make an
            # instant "nothing in flight" check a lie.
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                await asyncio.sleep(0.005)
                if self._work_in_flight():
                    continue
                if time.monotonic() - self._last_rx >= 0.05:
                    break
        conns = list(self._connections.values())
        for conn in conns:
            if drain:
                for flow in list(conn.flows.values()):
                    if not flow.finishing:
                        conn.send_error(
                            flow.flow_id,
                            ErrorCode.DRAINING,
                            f"{self.role} draining; flow discarded",
                        )
                conn.queue(protocol.encode_goodbye())
            self._teardown(conn)
        for conn in conns:
            with contextlib.suppress(Exception):
                await conn.wait_closed()
        await self._shutdown(drain)
        if self._server is not None:
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        self._stopped.set()

    # ------------------------------------------------------------------
    # data-plane connection handling
    # ------------------------------------------------------------------
    def _accept(self) -> Connection:
        self._conn_seq += 1
        conn = Connection(self, self._conn_seq)
        self._connections[conn.conn_id] = conn
        self.metrics.counter(f"{self.role}.connections.opened").inc()
        self._check_idle(conn)
        return conn

    def _failed(self, conn: Connection, exc: Exception) -> None:
        """The connection's fault: a bad frame, an end of stream inside
        one (answered with a connection ERROR), a lost socket — or a
        bug, reported to the loop. Either way it closes."""
        if isinstance(exc, ProtocolError):
            if not conn.closed:
                conn.send_error(CONNECTION_FLOW, exc.code, str(exc))
                self.metrics.counter(f"{self.role}.errors.protocol").inc()
        elif not isinstance(exc, (ConnectionError, OSError)):
            asyncio.get_running_loop().call_exception_handler(
                {"message": f"{self.role} frame handler failed",
                 "exception": exc}
            )
        conn.close()

    def _hello(self, conn: Connection, frame: Frame) -> None:
        """The client's first frame: answered with HELLO, or refused
        and the connection closed."""
        if frame.type != FrameType.HELLO:
            raise ProtocolError(
                f"expected HELLO, got {frame.name}",
                code=ErrorCode.BAD_FRAME,
            )
        version, peer_max = protocol.decode_hello(frame)
        if version != PROTOCOL_VERSION:
            conn.send_error(
                CONNECTION_FLOW,
                ErrorCode.VERSION_MISMATCH,
                f"{self.role} speaks v{PROTOCOL_VERSION}, client sent "
                f"v{version}",
            )
            conn.close()
            return
        conn.peer_max_frame = peer_max
        conn.greeted = True
        conn.queue(self._hello_frame())

    def _hello_frame(self) -> bytes:
        return protocol.encode_hello(
            PROTOCOL_VERSION, self.max_frame, self.grammar_refs(),
            self.hello_ring(),
        )

    def _check_idle(self, conn: Connection) -> None:
        """The connection's one re-arming timer: reap it once it has
        waited ``idle_timeout`` for a frame, else look again when that
        could next be true. The ERROR and the close happen here."""
        delay = self.idle_timeout
        if not conn._holds:  # held: busy, not idle
            delay = min(conn.idle_at - time.monotonic(), delay)
        if delay > 0:
            conn.idle_timer = asyncio.get_running_loop().call_later(
                delay, self._check_idle, conn
            )
            return
        self.metrics.counter(f"{self.role}.timeouts.idle").inc()
        conn.send_error(
            CONNECTION_FLOW,
            ErrorCode.IDLE_TIMEOUT,
            f"no frame for {self.idle_timeout:g}s",
        )
        conn.close()

    def _frame(self, conn: Connection, frame: Frame) -> None:
        """One inbound frame: the handshake, GOODBYE, or what the flow
        table makes of it."""
        if not conn.greeted:
            self._hello(conn, frame)
            return
        if frame.type == FrameType.GOODBYE:
            conn.run(self._client_goodbye(conn))
            return
        kind = OPENERS.get(frame.type)
        table = conn.table
        try:
            if kind is None:
                flow = table.route(frame)
            else:
                flow_id = table.admit(
                    frame, self._draining, self._at_quota(),
                    self._redirect(kind),
                )
        except Refused as refusal:
            self._refuse(conn, refusal)
            return
        if kind is None:
            self._op(conn, flow, frame)
        else:
            self._open(conn, kind, flow_id, frame)

    def _refuse(self, conn: Connection, refusal: Refused) -> None:
        if refusal.closed is not None:
            self._drop(conn, refusal.closed)
        conn.send_error(refusal.flow_id, refusal.code, str(refusal))

    def _fail_flow(
        self, conn: Connection, flow: Flow, code: int, message: str
    ) -> None:
        """Answer ``flow`` with ``ERROR(code)``; the table says whether
        that closes it."""
        if conn.table.fault(flow, code):
            self._drop(conn, flow)
        conn.send_error(flow.flow_id, code, message)

    async def _client_goodbye(self, conn: Connection) -> None:
        """Client is done sending: deliver what it is still owed, then
        answer GOODBYE and close."""
        deadline = time.monotonic() + self.idle_timeout
        while self._busy(conn) and time.monotonic() < deadline:
            await asyncio.sleep(0.002)
        conn.queue(protocol.encode_goodbye())
        conn.close()

    def _teardown(self, conn: Connection) -> None:
        if self._connections.pop(conn.conn_id, None) is None:
            return
        self.metrics.counter(f"{self.role}.connections.closed").inc()
        conn.idle_timer.cancel()
        flows = list(conn.flows.values())
        conn.flows.clear()
        for flow in flows:
            self._drop(conn, flow)
        conn.close()

    # ------------------------------------------------------------------
    # admin endpoint: minimal HTTP/1.0, plaintext
    # ------------------------------------------------------------------
    async def _handle_admin(self, reader, writer) -> None:
        try:
            request = await asyncio.wait_for(
                reader.readline(), timeout=self.idle_timeout
            )
            parts = request.decode("latin-1").split()
            method = parts[0].upper() if parts else "GET"
            target = parts[1] if len(parts) >= 2 else "/"
            path, _, query = target.partition("?")
            while True:  # drain headers
                line = await asyncio.wait_for(
                    reader.readline(), timeout=self.idle_timeout
                )
                if line in (b"\r\n", b"\n", b""):
                    break
            route = self._admin_routes.get(path)
            if route is None:
                status, body = "404 Not Found", f"no route {path}\n"
            else:
                status, body = await route(method, query)
            payload = body.encode("utf-8")
            writer.write(
                (
                    f"HTTP/1.0 {status}\r\n"
                    "Content-Type: text/plain; version=0.0.4; "
                    "charset=utf-8\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
                + payload
            )
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()
