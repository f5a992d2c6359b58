"""Cluster tier: a consistent-hash proxy over N scan-server backends.

The paper's device scales by replicating the tagger across ports of
one reconfigurable fabric; the software reproduction scales the same
way one tier up — :class:`ScanProxy` speaks the framed wire protocol
(:mod:`repro.server.protocol`) on its front and fans flows out across
a fleet of :class:`~repro.server.server.ScanServer` backends.

Routing
-------
Every flow (scan, mask, or beam) is pinned to a backend chosen by
consistent hashing: the flow's key ``(connection, flow id)`` lands on
a :class:`HashRing` of virtual nodes (``ring_replicas`` per backend,
blake2b-placed), and the lookup walks the ring to the first *healthy*
backend. Adding or removing one backend therefore only remaps the
flows that hashed to it — the rest of the fleet keeps its affinity.

Failover contract
-----------------
Backends are dialed through pooled, *journaling*
:class:`~repro.server.client.ScanClient` connections. When a backend
dies mid-flow (connection cut, or a DRAINING goodbye):

* **scan flows** re-replay their journaled DATA history onto the next
  ring backend — scanning is deterministic in the bytes fed, and the
  proxy holds partial results back until FINISH (as the record blocks
  the backend sent, which it then forwards unread: a routed result is
  a span of bytes the client already holds), so the client sees
  identical results, just later;
* **mask flows** re-open the vocabulary and replay only the *acked*
  ADVANCE ids (an id is journaled when its MASK reply lands), then
  re-issue the in-flight op — mask tables are pure functions of
  (grammar, vocab, history), so replies are bitwise stable;
* **beam flows** carry fork/rollback history and per-lane delta
  chains the proxy deliberately relays *undecoded* (frames are
  forwarded with only the flow id rewritten), so they cannot be
  replayed: the client gets a typed ``ERROR(FAILOVER)`` and must
  reopen.

Health & admin
--------------
A probe task polls each backend (admin ``/healthz`` when an admin
port is configured, a bare TCP dial otherwise) every
``health_interval`` seconds; failures eject the backend from routing
and drain its connection pool (which fails the pinned flows over),
recoveries readmit it. The proxy's own admin endpoint aggregates the
fleet: ``/healthz`` is ok while any backend is, ``/stats`` merges
backend registries under per-backend keys, and ``/metrics`` renders
one exposition with every backend's samples labeled
``backend="host:port"``.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import hashlib
import json
import time

from repro.errors import ReproError
from repro.server import protocol
from repro.server.client import ConnectFailed, ScanClient
from repro.server.protocol import (
    CONNECTION_FLOW,
    DEFAULT_MAX_FRAME,
    ErrorCode,
    Frame,
    FrameType,
    PROTOCOL_VERSION,
    ProtocolError,
    ServerFault,
)
from repro.service.metrics import MetricsRegistry, merge_expositions

__all__ = [
    "BackendSpec",
    "HashRing",
    "NoHealthyBackend",
    "ScanProxy",
    "parse_backend",
]

#: Failures that mean "the backend is gone", not "the request is bad".
#: asyncio.TimeoutError is TimeoutError on 3.11+, listed for clarity.
_BACKEND_FAULTS = (
    ConnectionError,
    OSError,
    TimeoutError,
    asyncio.TimeoutError,
    ConnectFailed,
)

#: ERROR codes that signal backend lifecycle, not client mistakes —
#: these trigger failover (or a typed FAILOVER for beam flows).
_LIFECYCLE_CODES = (ErrorCode.DRAINING, ErrorCode.IDLE_TIMEOUT)


class NoHealthyBackend(ReproError):
    """Every candidate backend is ejected or unreachable."""


class BackendSpec:
    """One backend address: data port plus optional admin port."""

    __slots__ = ("host", "port", "admin_port")

    def __init__(
        self, host: str, port: int, admin_port: int | None = None
    ) -> None:
        self.host = host
        self.port = int(port)
        self.admin_port = None if admin_port is None else int(admin_port)

    @property
    def name(self) -> str:
        return f"{self.host}:{self.port}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BackendSpec({self.name}, admin={self.admin_port})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, BackendSpec):
            return NotImplemented
        return (self.host, self.port, self.admin_port) == (
            other.host,
            other.port,
            other.admin_port,
        )

    def __hash__(self) -> int:
        return hash((self.host, self.port, self.admin_port))


def parse_backend(spec) -> BackendSpec:
    """``"host:port"``, ``"host:port:admin_port"``, a 2/3-tuple, or
    an existing :class:`BackendSpec`."""
    if isinstance(spec, BackendSpec):
        return spec
    if isinstance(spec, str):
        parts = spec.rsplit(":", 2)
        if len(parts) == 3 and parts[1].isdigit() and parts[2].isdigit():
            return BackendSpec(parts[0], int(parts[1]), int(parts[2]))
        host, _, port = spec.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(
                f"backend spec {spec!r} is not host:port[:admin_port]"
            )
        return BackendSpec(host, int(port))
    if isinstance(spec, (tuple, list)) and len(spec) in (2, 3):
        return BackendSpec(*spec)
    raise ValueError(f"unsupported backend spec {spec!r}")


# ----------------------------------------------------------------------
# consistent-hash ring
# ----------------------------------------------------------------------
def _ring_hash(data: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest(),
        "big",
    )


class HashRing:
    """Consistent hashing with virtual nodes.

    Each member is placed at ``replicas`` pseudo-random points on a
    64-bit ring; :meth:`preference` walks clockwise from a key's hash
    and yields members in first-encounter order, so a caller can skip
    unhealthy members and still get stable, minimal re-mapping."""

    def __init__(self, replicas: int = 64) -> None:
        self.replicas = replicas
        self._points: list[int] = []
        self._owners: dict[int, str] = {}
        self._members: set[str] = set()

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, name: str) -> bool:
        return name in self._members

    @property
    def members(self) -> tuple[str, ...]:
        return tuple(sorted(self._members))

    def add(self, name: str) -> None:
        if name in self._members:
            return
        self._members.add(name)
        for i in range(self.replicas):
            point = _ring_hash(f"{name}#{i}")
            # blake2b collisions across 64 bits are effectively
            # impossible; first owner keeps a contested point.
            if point not in self._owners:
                self._owners[point] = name
                bisect.insort(self._points, point)

    def remove(self, name: str) -> None:
        if name not in self._members:
            return
        self._members.discard(name)
        stale = [p for p, n in self._owners.items() if n == name]
        for point in stale:
            del self._owners[point]
        stale_set = set(stale)
        self._points = [p for p in self._points if p not in stale_set]

    def preference(self, key: str) -> list[str]:
        """Every member, ordered by ring walk from ``key``'s hash."""
        if not self._points:
            return []
        start = bisect.bisect(self._points, _ring_hash(key))
        seen: list[str] = []
        seen_set: set[str] = set()
        count = len(self._points)
        for i in range(count):
            owner = self._owners[self._points[(start + i) % count]]
            if owner not in seen_set:
                seen_set.add(owner)
                seen.append(owner)
                if len(seen) == len(self._members):
                    break
        return seen

    def lookup(self, key: str) -> str | None:
        order = self.preference(key)
        return order[0] if order else None


# ----------------------------------------------------------------------
# backend connection pooling
# ----------------------------------------------------------------------
class _Backend:
    """Live state for one backend: health plus a small pool of
    journaling client connections, shared by the flows pinned here."""

    def __init__(self, spec: BackendSpec, proxy: "ScanProxy") -> None:
        self.spec = spec
        self.proxy = proxy
        self.healthy = True
        self.last_error: str | None = None
        self.ejected_at: float | None = None
        self._pool: list[ScanClient | None] = [None] * proxy.pool_size
        self._next = 0
        self._lock = asyncio.Lock()

    @property
    def name(self) -> str:
        return self.spec.name

    async def acquire(self) -> ScanClient:
        """A connected pooled client (round-robin), dialing if the
        slot is empty or its connection has died."""
        async with self._lock:
            slot = self._next % len(self._pool)
            self._next += 1
            client = self._pool[slot]
            if client is not None and client.connected:
                return client
            client = ScanClient(
                self.spec.host,
                self.spec.port,
                journal=True,
                connect_timeout=self.proxy.probe_timeout,
                connect_retries=2,
                retry_backoff=0.05,
                request_timeout=self.proxy.request_timeout,
                max_frame=self.proxy.max_frame,
            )
            await client.connect()
            self._pool[slot] = client
            return client

    async def close_pool(self) -> None:
        clients, self._pool = self._pool, [None] * len(self._pool)
        for client in clients:
            if client is not None:
                with contextlib.suppress(Exception):
                    await client.close()

    def describe(self) -> dict:
        return {
            "host": self.spec.host,
            "port": self.spec.port,
            "admin_port": self.spec.admin_port,
            "healthy": self.healthy,
            "last_error": self.last_error,
            "pooled": sum(
                1
                for c in self._pool
                if c is not None and c.connected
            ),
        }


# ----------------------------------------------------------------------
# per-connection / per-flow proxy state
# ----------------------------------------------------------------------
_SCAN, _MASK, _BEAM = "scan", "mask", "beam"

#: Client frame types that open a flow (and of which kind), and those
#: that operate on an open one.
_OPENS = {
    FrameType.OPEN_FLOW: _SCAN,
    FrameType.OPEN_MASK: _MASK,
    FrameType.OPEN_BEAM: _BEAM,
}
_OPS = frozenset(
    (
        FrameType.DATA,
        FrameType.ADVANCE,
        FrameType.BATCH_ADVANCE,
        FrameType.FINISH_FLOW,
    )
)


class _ProxyFlow:
    __slots__ = (
        "flow_id", "kind", "key", "backend", "remote",
        "raw_client", "raw_fid", "queue", "task", "busy",
    )

    def __init__(self, flow_id: int, kind: str, key: str) -> None:
        self.flow_id = flow_id
        self.kind = kind
        self.key = key
        self.backend: _Backend | None = None
        self.remote = None              # lib flow (scan/mask)
        self.raw_client: ScanClient | None = None  # beam relay
        self.raw_fid = 0
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=64)
        self.task: asyncio.Task | None = None
        self.busy = False


class _ClientConn:
    """The proxy's view of one downstream client connection."""

    def __init__(self, proxy, reader, writer, conn_id: int) -> None:
        self.proxy = proxy
        self.reader = reader
        self.writer = writer
        self.conn_id = conn_id
        self.decoder = protocol.FrameDecoder(proxy.max_frame)
        self.flows: dict[int, _ProxyFlow] = {}
        self.peer_max_frame = DEFAULT_MAX_FRAME
        self.closed = False
        self._write_lock = asyncio.Lock()

    async def send(self, *frames: bytes) -> None:
        """Write encoded frames (one write, one drain)."""
        if self.closed:
            return
        async with self._write_lock:
            if self.closed:
                return
            blob = b"".join(frames)
            self.writer.write(blob)
            self.proxy.metrics.counter("proxy.tx.frames").inc(len(frames))
            self.proxy.metrics.counter("proxy.tx.bytes").inc(len(blob))
            await self.writer.drain()

    async def send_error(
        self, flow_id: int, code: int, message: str
    ) -> None:
        await self.send(protocol.encode_error(flow_id, code, message))

    async def close(self) -> None:
        self.closed = True
        with contextlib.suppress(Exception):
            self.writer.close()
            await self.writer.wait_closed()


def _rewrite_flow_id(frame: Frame, flow_id: int) -> bytes:
    """Re-emit a frame with its leading u32 flow id replaced — the
    whole translation a beam relay needs, leaving delta chains
    untouched."""
    return protocol.encode_frame(
        frame.type, flow_id.to_bytes(4, "big") + frame.payload[4:]
    )


async def _http_get(
    host: str, port: int, path: str, timeout: float = 2.0
) -> tuple[int, str]:
    """Minimal HTTP/1.0 GET against an admin endpoint."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    try:
        writer.write(
            f"GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n".encode(
                "latin-1"
            )
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(1 << 22), timeout)
    finally:
        with contextlib.suppress(Exception):
            writer.close()
            await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].split()
    status = int(status_line[1]) if len(status_line) >= 2 else 0
    return status, body.decode("utf-8", "replace")


# ----------------------------------------------------------------------
# the proxy
# ----------------------------------------------------------------------
class ScanProxy:
    """Front one framed-protocol listener with N scan-server backends.

    .. code-block:: python

        proxy = ScanProxy(["127.0.0.1:9431", "127.0.0.1:9432"], port=0)
        await proxy.start()
        ...
        await proxy.stop()

    Clients connect to :attr:`address` exactly as they would to a
    single :class:`~repro.server.server.ScanServer`; the proxy owns
    affinity, health, and failover (see the module docstring for the
    contract per flow kind).
    """

    def __init__(
        self,
        backends,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        admin_port: int | None = None,
        ring_replicas: int = 64,
        pool_size: int = 2,
        health_interval: float = 0.5,
        probe_timeout: float = 1.0,
        request_timeout: float = 30.0,
        idle_timeout: float = 30.0,
        max_frame: int = DEFAULT_MAX_FRAME,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        specs = [parse_backend(b) for b in backends]
        if not specs:
            raise ValueError("a proxy needs at least one backend")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate backends in {names}")
        self.host = host
        self.port = port
        self.admin_port = admin_port
        self.pool_size = max(1, pool_size)
        self.health_interval = health_interval
        self.probe_timeout = probe_timeout
        self.request_timeout = request_timeout
        self.idle_timeout = idle_timeout
        self.max_frame = max_frame
        self.metrics = metrics or MetricsRegistry()

        self.ring = HashRing(replicas=ring_replicas)
        self.backends: dict[str, _Backend] = {}
        for spec in specs:
            self.backends[spec.name] = _Backend(spec, self)
            self.ring.add(spec.name)

        self._grammars: tuple[str, ...] = ()
        self._server: asyncio.AbstractServer | None = None
        self._admin_server: asyncio.AbstractServer | None = None
        self._health_task: asyncio.Task | None = None
        self._connections: dict[int, _ClientConn] = {}
        self._conn_seq = 0
        self._draining = False
        self._stopped = asyncio.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ScanProxy":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        if self.admin_port is not None:
            self._admin_server = await asyncio.start_server(
                self._handle_admin, self.host, self.admin_port
            )
        await self._collect_grammars()
        self._health_task = asyncio.ensure_future(self._health_loop())
        self._refresh_gauges()
        return self

    @property
    def address(self) -> tuple[str, int]:
        assert self._server is not None, "proxy not started"
        return self._server.sockets[0].getsockname()[:2]

    @property
    def admin_address(self) -> tuple[str, int]:
        assert self._admin_server is not None, "no admin listener"
        return self._admin_server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        await self._stopped.wait()

    async def __aenter__(self) -> "ScanProxy":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.stop(drain=exc_type is None)
        return False

    async def stop(
        self, drain: bool = True, timeout: float = 30.0
    ) -> None:
        if self._stopped.is_set():
            return
        self._draining = True
        for server in (self._server, self._admin_server):
            if server is not None:
                server.close()
        if drain:
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                pending = any(
                    flow.busy or flow.queue.qsize()
                    for conn in self._connections.values()
                    for flow in conn.flows.values()
                )
                if not pending:
                    break
                await asyncio.sleep(0.01)
        if self._health_task is not None:
            self._health_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._health_task
        for conn in list(self._connections.values()):
            if drain:
                with contextlib.suppress(Exception):
                    await conn.send(protocol.encode_goodbye())
            await self._teardown(conn)
        for backend in self.backends.values():
            await backend.close_pool()
        if self._server is not None:
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        self._stopped.set()

    async def _collect_grammars(self) -> None:
        """Union of the grammar refs the backends advertise, for this
        proxy's own HELLO. Unreachable backends are skipped (the
        health loop will sort them out)."""
        seen: list[str] = []
        for backend in self.backends.values():
            try:
                client = await backend.acquire()
            except _BACKEND_FAULTS:
                continue
            for ref in client.server_grammars:
                if ref not in seen:
                    seen.append(ref)
        self._grammars = tuple(seen)

    # ------------------------------------------------------------------
    # routing & failover
    # ------------------------------------------------------------------
    def _pick_backend(
        self, key: str, exclude: set | frozenset = frozenset()
    ) -> _Backend | None:
        for name in self.ring.preference(key):
            backend = self.backends[name]
            if name not in exclude and backend.healthy:
                return backend
        return None

    def _note_backend_error(self, backend: _Backend, exc) -> None:
        backend.last_error = str(exc) or exc.__class__.__name__
        if backend.healthy:
            backend.healthy = False
            backend.ejected_at = time.monotonic()
            self.metrics.counter("proxy.backend.ejected").inc()
            self._refresh_gauges()
            # Drain the pool so every flow pinned here fails over
            # promptly instead of waiting out request timeouts.
            asyncio.ensure_future(backend.close_pool())

    def _readmit(self, backend: _Backend) -> None:
        if not backend.healthy:
            backend.healthy = True
            backend.last_error = None
            backend.ejected_at = None
            self.metrics.counter("proxy.backend.readmitted").inc()
            self._refresh_gauges()

    def _refresh_gauges(self) -> None:
        self.metrics.gauge("proxy.backends.total").set(
            len(self.backends)
        )
        self.metrics.gauge("proxy.backends.healthy").set(
            sum(1 for b in self.backends.values() if b.healthy)
        )

    async def _open_on_ring(self, flow: _ProxyFlow, opener):
        """Open a remote flow on the first working ring candidate.

        ``opener(client)`` performs the protocol open; backend faults
        rotate to the next candidate, request-level ServerFaults
        (UNKNOWN_VOCAB, ...) propagate to the caller."""
        excluded: set[str] = set()
        last: Exception | None = None
        while True:
            backend = self._pick_backend(flow.key, excluded)
            if backend is None:
                raise NoHealthyBackend(
                    f"no healthy backend for flow {flow.key}"
                    + (f" (last: {last})" if last else "")
                )
            try:
                client = await backend.acquire()
                remote = await opener(client)
            except _BACKEND_FAULTS as exc:
                last = exc
                excluded.add(backend.name)
                self._note_backend_error(backend, exc)
                continue
            flow.backend = backend
            return client, remote

    async def _replayable_op(self, flow: _ProxyFlow, op):
        """Run ``op(remote)``; on backend loss, replay the journaled
        flow onto the next ring candidate and re-run the op there.

        The journal holds only *acked* history, so an op the dead
        backend may or may not have applied is simply re-issued — the
        engines are deterministic, replies are bitwise stable."""
        excluded: set[str] = set()
        while True:
            try:
                return await op(flow.remote)
            except _BACKEND_FAULTS as exc:
                fault: Exception = exc
            except ServerFault as exc:
                if exc.code not in _LIFECYCLE_CODES:
                    raise
                fault = exc
            await self._failover(flow, fault, excluded)

    async def _failover(
        self, flow: _ProxyFlow, fault: Exception, excluded: set
    ) -> None:
        """Move ``flow`` onto a new backend (mutates flow in place);
        raises ``ServerFault(FAILOVER)`` when nothing is left."""
        assert flow.backend is not None
        excluded.add(flow.backend.name)
        self._note_backend_error(flow.backend, fault)
        _silence_flow(flow.remote)
        while True:
            backend = self._pick_backend(flow.key, excluded)
            if backend is None:
                self.metrics.counter("proxy.failover.exhausted").inc()
                raise ServerFault(
                    flow.flow_id,
                    ErrorCode.FAILOVER,
                    "no healthy backend left to replay flow onto "
                    f"(last: {fault})",
                )
            try:
                client = await backend.acquire()
                flow.remote = await flow.remote.replay_onto(client)
            except _BACKEND_FAULTS as exc:
                excluded.add(backend.name)
                self._note_backend_error(backend, exc)
                continue
            flow.backend = backend
            self.metrics.counter("proxy.failovers").inc()
            return

    # ------------------------------------------------------------------
    # health probing
    # ------------------------------------------------------------------
    async def _health_loop(self) -> None:
        while True:
            for backend in self.backends.values():
                try:
                    ok = await self._probe(backend)
                except asyncio.CancelledError:
                    raise
                except Exception:
                    ok = False
                if ok:
                    self._readmit(backend)
                elif backend.healthy:
                    self._note_backend_error(
                        backend, "health probe failed"
                    )
            self._refresh_gauges()
            await asyncio.sleep(self.health_interval)

    async def _probe(self, backend: _Backend) -> bool:
        spec = backend.spec
        if spec.admin_port is not None:
            try:
                status, _body = await _http_get(
                    spec.host,
                    spec.admin_port,
                    "/healthz",
                    timeout=self.probe_timeout,
                )
                return status == 200
            except _BACKEND_FAULTS:
                return False
        try:
            _, writer = await asyncio.wait_for(
                asyncio.open_connection(spec.host, spec.port),
                self.probe_timeout,
            )
        except _BACKEND_FAULTS:
            return False
        with contextlib.suppress(Exception):
            writer.close()
            await writer.wait_closed()
        return True

    # ------------------------------------------------------------------
    # client-facing data plane
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        self._conn_seq += 1
        conn = _ClientConn(self, reader, writer, self._conn_seq)
        self._connections[conn.conn_id] = conn
        self.metrics.counter("proxy.connections.opened").inc()
        try:
            await self._frame_loop(conn)
        except (ConnectionError, OSError):
            pass
        except ProtocolError as exc:
            with contextlib.suppress(Exception):
                await conn.send_error(
                    CONNECTION_FLOW, exc.code, str(exc)
                )
            self.metrics.counter("proxy.errors.protocol").inc()
        finally:
            await self._teardown(conn)

    async def _read_frames(self, conn: _ClientConn):
        """Every frame the next socket read completes (the framing
        shared with server and client), or None on EOF or idleness."""
        taken = conn.decoder.taken
        try:
            frames = await asyncio.wait_for(
                protocol.read_frames(conn.reader, conn.decoder),
                timeout=self.idle_timeout,
            )
        except asyncio.TimeoutError:
            self.metrics.counter("proxy.timeouts.idle").inc()
            await conn.send_error(
                CONNECTION_FLOW,
                ErrorCode.IDLE_TIMEOUT,
                f"no frame for {self.idle_timeout:g}s",
            )
            return None
        if frames is not None:
            self.metrics.counter("proxy.rx.frames").inc(len(frames))
            self.metrics.counter("proxy.rx.bytes").inc(
                conn.decoder.taken - taken
            )
        return frames

    async def _hello(self, conn: _ClientConn, frame: Frame) -> bool:
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
                f"proxy speaks v{PROTOCOL_VERSION}, client sent "
                f"v{version}",
            )
            return False
        conn.peer_max_frame = peer_max
        await conn.send(
            protocol.encode_hello(
                PROTOCOL_VERSION, self.max_frame, self._grammars
            )
        )
        return True

    async def _frame_loop(self, conn: _ClientConn) -> None:
        greeted = False
        while True:
            frames = await self._read_frames(conn)
            if frames is None:
                return
            for frame in frames:
                if not greeted:
                    if not await self._hello(conn, frame):
                        return
                    greeted = True
                elif not await self._dispatch(conn, frame):
                    return

    async def _dispatch(self, conn: _ClientConn, frame: Frame) -> bool:
        """Hand one client frame to its flow's worker; False ends the
        connection (GOODBYE)."""
        if frame.type in _OPENS:
            flow_id = int.from_bytes(frame.payload[:4], "big")
            if flow_id in conn.flows:
                # Mirror the single-server contract: the colliding
                # open kills the existing flow.
                self._flow_closed(conn, conn.flows[flow_id])
                await conn.send_error(
                    flow_id,
                    ErrorCode.DUPLICATE_FLOW,
                    f"flow {flow_id} already open",
                )
                return True
            if self._draining:
                await conn.send_error(
                    flow_id,
                    ErrorCode.DRAINING,
                    "proxy draining; flow refused",
                )
                return True
            kind = _OPENS[frame.type]
            flow = _ProxyFlow(flow_id, kind, f"{conn.conn_id}:{flow_id}")
            conn.flows[flow_id] = flow
            self.metrics.counter(f"proxy.flows.{kind}").inc()
            flow.task = asyncio.ensure_future(
                self._flow_worker(conn, flow)
            )
            await flow.queue.put(("open", frame))
        elif frame.type in _OPS:
            flow_id = int.from_bytes(frame.payload[:4], "big")
            flow = conn.flows.get(flow_id)
            if flow is None:
                await conn.send_error(
                    flow_id,
                    ErrorCode.UNKNOWN_FLOW,
                    f"no open flow {flow_id}",
                )
                return True
            await flow.queue.put(("op", frame))
        elif frame.type == FrameType.GOODBYE:
            await self._client_goodbye(conn)
            return False
        else:
            raise ProtocolError(
                f"unexpected {frame.name} frame",
                code=ErrorCode.BAD_FRAME,
            )
        return True

    async def _client_goodbye(self, conn: _ClientConn) -> None:
        deadline = time.monotonic() + self.idle_timeout
        while time.monotonic() < deadline and any(
            flow.busy or flow.queue.qsize()
            for flow in conn.flows.values()
        ):
            await asyncio.sleep(0.005)
        await conn.send(protocol.encode_goodbye())

    async def _teardown(self, conn: _ClientConn) -> None:
        self._connections.pop(conn.conn_id, None)
        current = asyncio.current_task()
        for flow in list(conn.flows.values()):
            if flow.task is not None and flow.task is not current:
                flow.task.cancel()
            self._abandon_remote(flow)
        conn.flows.clear()
        await conn.close()

    def _flow_closed(self, conn: _ClientConn, flow: _ProxyFlow) -> None:
        """Forget a flow; cancel its worker unless we *are* it."""
        conn.flows.pop(flow.flow_id, None)
        if flow.task is not None and flow.task is not asyncio.current_task():
            flow.task.cancel()

    def _abandon_remote(self, flow: _ProxyFlow) -> None:
        """Release backend-side state for a flow dying un-finished."""
        if flow.raw_client is not None:
            flow.raw_client.clear_raw_tap(flow.raw_fid)
            asyncio.ensure_future(
                _finish_raw(flow.raw_client, flow.raw_fid)
            )
            flow.raw_client = None
        elif flow.remote is not None:
            _silence_flow(flow.remote)
            asyncio.ensure_future(_finish_remote(flow.remote))
            flow.remote = None

    # ------------------------------------------------------------------
    # flow workers
    # ------------------------------------------------------------------
    async def _flow_worker(
        self, conn: _ClientConn, flow: _ProxyFlow
    ) -> None:
        try:
            while True:
                kind, frame = await flow.queue.get()
                flow.busy = True
                try:
                    done = await self._execute(conn, flow, kind, frame)
                finally:
                    flow.busy = False
                if done:
                    return
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError):
            # The *client* connection is gone; teardown cleans up.
            conn.flows.pop(flow.flow_id, None)
        except ServerFault as fault:
            with contextlib.suppress(Exception):
                await conn.send_error(
                    flow.flow_id, fault.code, fault.detail
                )
            self._flow_closed(conn, flow)
            self._abandon_remote(flow)
        except NoHealthyBackend as exc:
            with contextlib.suppress(Exception):
                await conn.send_error(
                    flow.flow_id, ErrorCode.FAILOVER, str(exc)
                )
            self._flow_closed(conn, flow)
        except Exception as exc:  # noqa: BLE001 - fault barrier
            with contextlib.suppress(Exception):
                await conn.send_error(
                    flow.flow_id,
                    ErrorCode.INTERNAL,
                    f"proxy error: {exc}",
                )
            self._flow_closed(conn, flow)
            self._abandon_remote(flow)

    async def _execute(
        self, conn: _ClientConn, flow: _ProxyFlow, kind: str, frame
    ) -> bool:
        """One queued op; True ends the flow (and its worker)."""
        if flow.kind == _BEAM:
            return await self._execute_beam(conn, flow, kind, frame)
        if kind == "open":
            if flow.kind == _SCAN:
                _, flow.remote = await self._open_on_ring(
                    flow, lambda c: c.open_flow()
                )
            else:
                _fid, vocab_hash = protocol.decode_open_mask(frame)
                _, flow.remote = await self._open_on_ring(
                    flow, lambda c: c.open_mask_flow(vocab_hash)
                )
                await conn.send(
                    protocol.encode_mask(
                        flow.flow_id,
                        flow.remote.state,
                        flow.remote.mask,
                    )
                )
            return False
        if frame.type == FrameType.DATA and flow.kind == _SCAN:
            _fid, chunk = protocol.decode_data(frame)
            await self._replayable_op(
                flow, lambda r: r.send(chunk)
            )
            return False
        if frame.type == FrameType.ADVANCE and flow.kind == _MASK:
            _fid, token_id = protocol.decode_advance(frame)
            started = time.perf_counter()
            state, row = await self._replayable_op(
                flow, lambda r: r.advance(token_id)
            )
            self.metrics.histogram("proxy.latency.op_s").observe(
                time.perf_counter() - started
            )
            await conn.send(
                protocol.encode_mask(flow.flow_id, state, row)
            )
            return False
        if frame.type == FrameType.FINISH_FLOW:
            # Held until now, which is what makes scan failover
            # invisible: no partial RESULT can have escaped for a
            # prefix the replacement backend re-scans. The backend's
            # record blocks go out unread under the client's flow id
            # (a mask flow's is the one empty final block).
            blocks = await self._replayable_op(
                flow, lambda r: r.finish_blocks()
            )
            flow.remote = None
            await conn.send(
                *protocol.relay_result_frames(
                    flow.flow_id, blocks, conn.peer_max_frame
                )
            )
            conn.flows.pop(flow.flow_id, None)
            return True
        raise ServerFault(
            flow.flow_id,
            ErrorCode.BAD_FRAME,
            f"{frame.name} not valid on a {flow.kind} flow",
        )

    # -- beam relay ----------------------------------------------------
    async def _execute_beam(
        self, conn: _ClientConn, flow: _ProxyFlow, kind: str, frame
    ) -> bool:
        """Beam frames relay *undecoded* (flow id rewritten) to one
        backend for the flow's whole life; replies flow back through a
        raw tap the same way. On backend loss the client receives the
        typed FAILOVER error — see the module docstring for why beam
        flows are non-replayable by contract."""
        if kind == "open":
            backend = self._pick_backend(flow.key)
            last: Exception | None = None
            excluded: set[str] = set()
            while backend is not None:
                try:
                    client = await backend.acquire()
                    break
                except _BACKEND_FAULTS as exc:
                    last = exc
                    excluded.add(backend.name)
                    self._note_backend_error(backend, exc)
                    backend = self._pick_backend(flow.key, excluded)
            else:
                client = None
            if backend is None or client is None:
                raise NoHealthyBackend(
                    f"no healthy backend for flow {flow.key}"
                    + (f" (last: {last})" if last else "")
                )
            flow.backend = backend
            flow.raw_client = client
            flow.raw_fid = client.allocate_flow_id()
            client.set_raw_tap(
                flow.raw_fid, self._make_beam_tap(conn, flow)
            )
        if flow.raw_client is None:
            # Tap already tore the flow down (backend died between
            # queued ops); everything left is a no-op.
            return True
        try:
            await flow.raw_client.send_raw(
                _rewrite_flow_id(frame, flow.raw_fid)
            )
        except _BACKEND_FAULTS as exc:
            if flow.backend is not None:
                self._note_backend_error(flow.backend, exc)
            await self._beam_failover(conn, flow, str(exc))
            return True
        # Replies (MASKS / final RESULT / ERROR) arrive via the tap;
        # FINISH ends the *worker* once the final RESULT has passed
        # through, which the tap signals by clearing raw_client.
        return False

    def _make_beam_tap(self, conn: _ClientConn, flow: _ProxyFlow):
        async def tap(frame) -> None:
            if frame is None:  # backend connection died
                await self._beam_failover(
                    conn, flow, "backend connection lost"
                )
                return
            if frame.type == FrameType.ERROR:
                code = int.from_bytes(frame.payload[4:6], "big")
                if code in _LIFECYCLE_CODES:
                    await self._beam_failover(
                        conn,
                        flow,
                        frame.payload[6:].decode("utf-8", "replace"),
                    )
                    return
                await conn.send(
                    _rewrite_flow_id(frame, flow.flow_id)
                )
                if code != ErrorCode.BAD_TOKEN:
                    # Flow-fatal (UNKNOWN_VOCAB, ...): mirror the
                    # backend dropping it.
                    self._detach_beam(flow)
                    self._flow_closed(conn, flow)
                return
            await conn.send(_rewrite_flow_id(frame, flow.flow_id))
            if frame.type == FrameType.RESULT and frame.payload[4]:
                # Final RESULT: the close handshake completed.
                self._detach_beam(flow)
                self._flow_closed(conn, flow)

        return tap

    def _detach_beam(self, flow: _ProxyFlow) -> None:
        if flow.raw_client is not None:
            flow.raw_client.clear_raw_tap(flow.raw_fid)
            flow.raw_client = None

    async def _beam_failover(
        self, conn: _ClientConn, flow: _ProxyFlow, detail: str
    ) -> None:
        self._detach_beam(flow)
        if flow.flow_id not in conn.flows:
            return
        self.metrics.counter("proxy.failover.beam_refused").inc()
        backend = flow.backend.name if flow.backend else "?"
        with contextlib.suppress(Exception):
            await conn.send_error(
                flow.flow_id,
                ErrorCode.FAILOVER,
                f"backend {backend} lost ({detail}); beam flows are "
                "not replayable — reopen to continue",
            )
        self._flow_closed(conn, flow)

    # ------------------------------------------------------------------
    # stats & admin aggregation
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        self._refresh_gauges()
        snapshot = self.metrics.snapshot()
        snapshot["backends"] = {
            name: backend.describe()
            for name, backend in sorted(self.backends.items())
        }
        snapshot["ring"] = {
            "members": list(self.ring.members),
            "replicas": self.ring.replicas,
        }
        snapshot["connections_open"] = len(self._connections)
        snapshot["flows_open"] = sum(
            len(c.flows) for c in self._connections.values()
        )
        snapshot["grammars"] = list(self._grammars)
        return snapshot

    async def _fetch_backend_admin(
        self, backend: _Backend, path: str
    ) -> tuple[int, str] | None:
        spec = backend.spec
        if spec.admin_port is None:
            return None
        try:
            return await _http_get(
                spec.host,
                spec.admin_port,
                path,
                timeout=self.probe_timeout,
            )
        except _BACKEND_FAULTS:
            return None

    async def _aggregate_stats(self) -> str:
        merged = self.stats()
        fetched = await asyncio.gather(
            *(
                self._fetch_backend_admin(b, "/stats")
                for b in self.backends.values()
            )
        )
        for backend, reply in zip(self.backends.values(), fetched):
            entry = merged["backends"][backend.name]
            if reply is None:
                entry["stats"] = None
            else:
                status, body = reply
                try:
                    entry["stats"] = (
                        json.loads(body) if status == 200 else None
                    )
                except ValueError:
                    entry["stats"] = None
        return json.dumps(merged, indent=2, sort_keys=True) + "\n"

    async def _aggregate_metrics(self) -> str:
        self.stats()  # refresh own gauges
        parts: list[tuple[dict, str]] = [
            ({}, self.metrics.render_prometheus())
        ]
        fetched = await asyncio.gather(
            *(
                self._fetch_backend_admin(b, "/metrics")
                for b in self.backends.values()
            )
        )
        for backend, reply in zip(self.backends.values(), fetched):
            if reply is not None and reply[0] == 200:
                parts.append(({"backend": backend.name}, reply[1]))
        return merge_expositions(parts)

    async def _handle_admin(self, reader, writer) -> None:
        try:
            request = await asyncio.wait_for(
                reader.readline(), timeout=self.idle_timeout
            )
            parts = request.decode("latin-1").split()
            target = parts[1] if len(parts) >= 2 else "/"
            path, _, _query = target.partition("?")
            while True:  # drain headers
                line = await asyncio.wait_for(
                    reader.readline(), timeout=self.idle_timeout
                )
                if line in (b"\r\n", b"\n", b""):
                    break
            if path == "/metrics":
                status, body = "200 OK", await self._aggregate_metrics()
            elif path == "/healthz":
                if any(b.healthy for b in self.backends.values()):
                    status, body = "200 OK", "ok\n"
                else:
                    status, body = (
                        "503 Service Unavailable",
                        "no healthy backends\n",
                    )
            elif path == "/stats":
                status, body = "200 OK", await self._aggregate_stats()
            else:
                status, body = "404 Not Found", f"no route {path}\n"
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


# ----------------------------------------------------------------------
# abandoned-flow hygiene
# ----------------------------------------------------------------------
def _silence_flow(remote) -> None:
    """Consume a dead lib flow's pending exception so the event loop
    doesn't log 'exception was never retrieved' for futures nobody
    will await after a failover or teardown."""
    fut = getattr(remote, "_done", None)
    if fut is not None and fut.done() and not fut.cancelled():
        with contextlib.suppress(Exception):
            fut.exception()
    for fut in getattr(remote, "_pending_masks", ()):
        if fut.done() and not fut.cancelled():
            with contextlib.suppress(Exception):
                fut.exception()


async def _finish_remote(remote) -> None:
    with contextlib.suppress(Exception):
        await remote.finish_blocks(timeout=2.0)
    _silence_flow(remote)


async def _finish_raw(client: ScanClient, raw_fid: int) -> None:
    with contextlib.suppress(Exception):
        await client.send_raw(protocol.encode_finish_flow(raw_fid))
