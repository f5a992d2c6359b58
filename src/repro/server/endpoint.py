"""The connection-accepting half of every framed-protocol listener.

:class:`FramedEndpoint` is what :class:`~repro.server.server.ScanServer`
and :class:`~repro.server.cluster.ScanProxy` have in common: the data
and admin listeners and their lifecycle, the HELLO/version handshake,
the idle-timed block read, the per-read frame loop that asks the
connection's :class:`~repro.server.flows.FlowTable` about every
inbound frame (and answers a refusal with its ERROR), the drain on
:meth:`~FramedEndpoint.stop`, and the minimal HTTP/1.0 admin
responder. The two differ by a metric prefix (:attr:`role`), an admin
route table, and what they do with a frame once the table accepted it
(:meth:`_open` / :meth:`_op`).
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import time

from repro.server import protocol
from repro.server.flows import OPENERS, Flow, FlowKind, FlowTable, Refused
from repro.server.protocol import (
    CONNECTION_FLOW,
    DEFAULT_MAX_FRAME,
    ErrorCode,
    Frame,
    FrameType,
    Outbound,
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


class Connection(Outbound):
    """One accepted connection: its flow table, its outbound side and
    its idle deadline."""

    def __init__(self, endpoint: "FramedEndpoint", reader, writer, conn_id):
        super().__init__(writer, endpoint.write_high_water)
        self.endpoint = endpoint
        self.reader = reader
        self.conn_id = conn_id
        self.decoder = protocol.FrameDecoder(endpoint.max_frame)
        self.table = FlowTable()
        #: The table's open flows, by connection-scoped flow id.
        self.flows = self.table.flows
        self.peer_max_frame = DEFAULT_MAX_FRAME
        #: When the read now waiting for a frame will have waited
        #: ``idle_timeout`` (never, while the connection's frames are
        #: being handled), and the one timer that checks it.
        self.idle_at = math.inf
        self.idle_timer: asyncio.TimerHandle | None = None

    def _wrote(self, frames: int, nbytes: int) -> None:
        endpoint = self.endpoint
        endpoint._tx_frames.inc(frames)
        endpoint._tx_writes.inc()
        endpoint._tx_bytes.inc(nbytes)

    async def send_error(self, flow_id: int, code: int, message: str):
        self.endpoint._errors_sent.inc()
        await self.send(protocol.encode_error(flow_id, code, message))


class FramedEndpoint:
    """A framed-protocol listener (plus optional admin listener)."""

    #: Metric prefix, and what the endpoint calls itself in errors.
    role = "endpoint"
    connection_class = Connection

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

    def _at_quota(self) -> str | None:
        """Why no new flow fits right now (None: one does)."""
        return None

    async def _open(
        self, conn: Connection, kind: FlowKind, flow_id: int, frame: Frame
    ) -> None:
        """An admitted opening frame: build the flow and open it in
        ``conn.table`` (or refuse it for a reason of one's own)."""
        raise NotImplementedError

    async def _op(self, conn: Connection, flow: Flow, frame: Frame) -> None:
        """An op frame its open flow accepts."""
        raise NotImplementedError

    def _drop(self, conn: Connection, flow: Flow) -> None:
        """Release what a flow that closed unfinished was holding."""

    def _busy(self, conn: Connection) -> bool:
        """Accepted work on ``conn`` whose reply is still owed."""
        return False

    def _work_in_flight(self) -> bool:
        """What a graceful drain waits for."""
        return any(self._busy(conn) for conn in self._connections.values())

    async def _shutdown(self, drain: bool) -> None:
        """Stop background tasks and backends (connections are closed)."""

    # ------------------------------------------------------------------
    # listener lifecycle
    # ------------------------------------------------------------------
    async def start(self):
        """Bind the data (and optional admin) listeners."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
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
        for conn in list(self._connections.values()):
            if drain:
                for flow in list(conn.flows.values()):
                    if not flow.finishing:
                        await conn.send_error(
                            flow.flow_id,
                            ErrorCode.DRAINING,
                            f"{self.role} draining; flow discarded",
                        )
                await conn.send(protocol.encode_goodbye())
            await self._teardown(conn)
        await self._shutdown(drain)
        if self._server is not None:
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        self._stopped.set()

    # ------------------------------------------------------------------
    # data-plane connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        self._conn_seq += 1
        conn = self.connection_class(self, reader, writer, self._conn_seq)
        writer.transport.set_write_buffer_limits(high=self.write_high_water)
        self._connections[conn.conn_id] = conn
        self.metrics.counter(f"{self.role}.connections.opened").inc()
        self._check_idle(conn)
        try:
            await self._frame_loop(conn)
        except (ConnectionError, OSError):
            pass
        except ProtocolError as exc:
            if not conn.closed:  # else: the idle deadline cut a frame
                await conn.send_error(CONNECTION_FLOW, exc.code, str(exc))
                self.metrics.counter(f"{self.role}.errors.protocol").inc()
        finally:
            await self._teardown(conn)

    async def _hello(self, conn: Connection, frame: Frame) -> bool:
        """The client's first frame; False refuses the connection."""
        if frame.type != FrameType.HELLO:
            raise ProtocolError(
                f"expected HELLO, got {frame.name}",
                code=ErrorCode.BAD_FRAME,
            )
        version, peer_max = protocol.decode_hello(frame)
        if version != PROTOCOL_VERSION:
            await conn.send_error(
                CONNECTION_FLOW,
                ErrorCode.VERSION_MISMATCH,
                f"{self.role} speaks v{PROTOCOL_VERSION}, client sent "
                f"v{version}",
            )
            return False
        conn.peer_max_frame = peer_max
        await conn.send(
            protocol.encode_hello(
                PROTOCOL_VERSION, self.max_frame, self.grammar_refs()
            )
        )
        return True

    async def _read_frames(self, conn: Connection) -> list[Frame] | None:
        """Every frame the next socket read completes, or None on EOF
        (the peer's, or the idle deadline's close). The deadline runs
        per call, so a frame dribbled in slower than the limit counts
        as idle."""
        taken = conn.decoder.taken
        conn.idle_at = time.monotonic() + self.idle_timeout
        try:
            frames = await protocol.read_frames(conn.reader, conn.decoder)
        finally:
            conn.idle_at = math.inf
        if frames is not None:
            self._last_rx = time.monotonic()
            self._rx_reads.inc()
            self._rx_frames.inc(len(frames))
            self._rx_bytes.inc(conn.decoder.taken - taken)
        return frames

    def _check_idle(self, conn: Connection) -> None:
        """The connection's one re-arming timer: reap it once a read
        has waited ``idle_timeout`` for a frame, else look again when
        that could next be true. The ERROR and the close happen here;
        the handler wakes from its read on the resulting EOF."""
        delay = min(conn.idle_at - time.monotonic(), self.idle_timeout)
        if delay > 0:
            conn.idle_timer = asyncio.get_running_loop().call_later(
                delay, self._check_idle, conn
            )
            return
        self.metrics.counter(f"{self.role}.timeouts.idle").inc()
        self._errors_sent.inc()
        conn.queue(
            protocol.encode_error(
                CONNECTION_FLOW,
                ErrorCode.IDLE_TIMEOUT,
                f"no frame for {self.idle_timeout:g}s",
            )
        )
        conn.push()
        conn.closed = True
        conn.writer.close()

    async def _frame_loop(self, conn: Connection) -> None:
        """Read, handle every frame the read completed, write once."""
        table = conn.table
        greeted = False
        while not conn.closed:
            frames = await self._read_frames(conn)
            if frames is None:
                return
            for frame in frames:
                if not greeted:
                    if not await self._hello(conn, frame):
                        return
                    greeted = True
                    continue
                if frame.type == FrameType.GOODBYE:
                    await self._client_goodbye(conn)
                    return
                kind = OPENERS.get(frame.type)
                try:
                    if kind is None:
                        flow = table.route(frame)
                    else:
                        flow_id = table.admit(
                            frame, self._draining, self._at_quota()
                        )
                except Refused as refusal:
                    await self._refuse(conn, refusal)
                    continue
                if kind is None:
                    await self._op(conn, flow, frame)
                else:
                    await self._open(conn, kind, flow_id, frame)
            await conn.flush()

    async def _refuse(self, conn: Connection, refusal: Refused) -> None:
        if refusal.closed is not None:
            self._drop(conn, refusal.closed)
        await conn.send_error(refusal.flow_id, refusal.code, str(refusal))

    async def _fail_flow(
        self, conn: Connection, flow: Flow, code: int, message: str
    ) -> None:
        """Answer ``flow`` with ``ERROR(code)``; the table says whether
        that closes it."""
        if conn.table.fault(flow, code):
            self._drop(conn, flow)
        await conn.send_error(flow.flow_id, code, message)

    async def _client_goodbye(self, conn: Connection) -> None:
        """Client is done sending: deliver what it is still owed, then
        answer GOODBYE."""
        deadline = time.monotonic() + self.idle_timeout
        while self._busy(conn) and time.monotonic() < deadline:
            await asyncio.sleep(0.002)
        await conn.send(protocol.encode_goodbye())

    async def _teardown(self, conn: Connection) -> None:
        if self._connections.pop(conn.conn_id, None) is None:
            return
        self.metrics.counter(f"{self.role}.connections.closed").inc()
        conn.idle_timer.cancel()
        flows = list(conn.flows.values())
        conn.flows.clear()
        for flow in flows:
            self._drop(conn, flow)
        await conn.close()

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
