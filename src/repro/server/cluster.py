"""Cluster tier: a consistent-hash proxy over N scan-server backends.

The paper's device scales by replicating the tagger across ports of
one reconfigurable fabric; the software reproduction scales the same
way one tier up — :class:`ScanProxy` speaks the framed wire protocol
(:mod:`repro.server.protocol`) on its front and fans flows out across
a fleet of :class:`~repro.server.server.ScanServer` backends. Its front
is the same :class:`~repro.server.endpoint.FramedEndpoint` a server is,
consulting the same lifecycle table (:mod:`repro.server.flows`,
DESIGN.md §8), so what a client may send when — and the ERROR that
answers what it may not — cannot differ between the two.

Routing
-------
Every flow (scan or beam) is pinned to a backend chosen by consistent
hashing: the flow's key ``(connection, flow id)`` lands on a
:class:`HashRing` of virtual nodes (``ring_replicas`` per backend,
blake2b-placed), and the lookup walks the ring to the first *healthy*
backend. Adding or removing one backend therefore only remaps the
flows that hashed to it — the rest of the fleet keeps its affinity.

Failover contract
-----------------
Backends are dialed through pooled
:class:`~repro.server.client.ScanClient` connections. A backend's
replies are a pure function of a flow's history (the engines are
deterministic automata), so one rule covers every kind: when a
backend is lost mid-flow (connection cut, a DRAINING or IDLE_TIMEOUT
error, a failed send), the proxy replays the flow's acked history onto
the next healthy ring backend, or answers ``ERROR(FAILOVER)``.

* **scan flows** replay their DATA history — the proxy holds partial
  results back until FINISH (as the record blocks the backend sent,
  which it then forwards unread: a routed result is a span of bytes
  the client already holds), so the client sees identical results,
  just later;
* **beam flows** are relayed *undecoded* (only the flow id is
  rewritten): the client's delta chain runs against the backend's.
  The proxy journals each frame whose MASKS reply it forwarded and
  keeps a sha256 over those replies; a replay hashes the new backend's
  replies instead, and goes on only when the digests are equal (so its
  delta base is the client's rows), re-sending the frames not yet
  answered. A mismatch or an ERROR in the replay is ``FAILOVER``.

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
import collections
import contextlib
import hashlib
import json
import time

from repro.errors import ReproError
from repro.server import protocol
from repro.server.client import ConnectFailed, ScanClient
from repro.server.endpoint import Connection, FramedEndpoint, reap
from repro.server.flows import BEAM, Flow, FlowKind
from repro.server.protocol import (
    DEFAULT_MAX_FRAME,
    ErrorCode,
    Frame,
    FrameType,
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
#: these trigger failover.
_LIFECYCLE_CODES = (ErrorCode.DRAINING, ErrorCode.IDLE_TIMEOUT)

#: Queued to a beam's worker when its backend is lost, to wake it.
_LOST = Frame(0, b"")


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
    """Live state for one backend: health plus a small pool of client
    connections, shared by the flows pinned here."""

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
class _ProxyFlow(Flow):
    __slots__ = ("kind", "key", "backend", "remote", "queue", "task", "busy")

    def __init__(self, flow_id: int, kind: FlowKind, key: str) -> None:
        super().__init__(flow_id)
        self.kind = kind
        self.key = key
        self.backend: _Backend | None = None
        self.remote = None  # the backend-side ClientFlow (scan)
        #: Client frames the flow table accepted, in arrival order.
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=64)
        self.task: asyncio.Task | None = None
        self.busy = False


class _ProxyBeam(_ProxyFlow):
    """A beam relayed raw to ``raw_client``'s backend as ``raw_fid``,
    plus what a replay needs: the client frames sent there and not yet
    answered (FIFO), the acked journal (frames whose MASKS reply was
    forwarded, the OPEN_BEAM first) and a sha256 over those MASKS
    payloads, taken past the flow id."""

    __slots__ = ("raw_client", "raw_fid", "sent", "acked", "digest", "lost")

    def __init__(self, flow_id: int, kind: FlowKind, key: str) -> None:
        super().__init__(flow_id, kind, key)
        self.raw_client: ScanClient | None = None
        self.raw_fid = 0
        self.sent: collections.deque = collections.deque()
        self.acked: list[Frame] = []
        self.digest = hashlib.sha256()
        #: Why the backend was lost (None: it was not).
        self.lost = None


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
    """Minimal HTTP/1.0 GET against an admin endpoint: the whole
    exchange under one deadline, the reply read to EOF (the responder
    closes after it — a single read returns only the first segment)."""

    async def exchange() -> bytes:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(
                f"GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n".encode(
                    "latin-1"
                )
            )
            await writer.drain()
            return await reader.read()
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    raw = await asyncio.wait_for(exchange(), timeout)
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].split()
    status = int(status_line[1]) if len(status_line) >= 2 else 0
    return status, body.decode("utf-8", "replace")


# ----------------------------------------------------------------------
# the proxy
# ----------------------------------------------------------------------
class ScanProxy(FramedEndpoint):
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

    role = "proxy"

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
        super().__init__(
            host,
            port,
            admin_port=admin_port,
            idle_timeout=idle_timeout,
            max_frame=max_frame,
            metrics=metrics,
        )
        self._admin_routes = {
            "/metrics": self._aggregate_metrics,
            "/healthz": self._admin_healthz,
            "/stats": self._aggregate_stats,
        }
        self.pool_size = max(1, pool_size)
        self.health_interval = health_interval
        self.probe_timeout = probe_timeout
        self.request_timeout = request_timeout

        self.ring = HashRing(replicas=ring_replicas)
        self.backends: dict[str, _Backend] = {}
        for spec in specs:
            self.backends[spec.name] = _Backend(spec, self)
            self.ring.add(spec.name)

        self._grammars: tuple[str, ...] = ()
        self._health_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ScanProxy":
        await super().start()
        await self._collect_grammars()
        self._health_task = asyncio.ensure_future(self._health_loop())
        self._refresh_gauges()
        return self

    def _busy(self, conn: Connection) -> bool:
        return any(
            flow.busy or flow.queue.qsize() for flow in conn.flows.values()
        )

    async def _shutdown(self, drain: bool) -> None:
        await reap(self._health_task)
        for backend in self.backends.values():
            await backend.close_pool()

    def grammar_refs(self) -> tuple[str, ...]:
        return self._grammars

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
        """Run ``op(remote)`` on a scan flow; on backend loss, replay
        the journaled flow onto the next ring candidate and re-run the
        op there (the engines are deterministic, results stable)."""
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
        raises ``ServerFault(FAILOVER)`` when nothing is left, or when
        a beam's replay does not line up."""
        assert flow.backend is not None
        excluded.add(flow.backend.name)
        self._note_backend_error(flow.backend, fault)
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
                if flow.kind is BEAM:
                    await self._replay_beam(flow, client)
                else:
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
    # client-facing data plane: frames the flow table accepted
    # ------------------------------------------------------------------
    async def _open(self, conn, kind, flow_id: int, frame: Frame) -> None:
        key = f"{conn.conn_id}:{flow_id}"
        if kind is BEAM:
            # Relayed unread, so checked here: a malformed frame is the
            # client connection's fault, as on a server — it must not
            # reach (and be replayed onto) backend connections.
            protocol.decode_open_beam(frame)
            flow = _ProxyBeam(flow_id, kind, key)
        else:
            flow = _ProxyFlow(flow_id, kind, key)
        conn.table.open(flow)
        self.metrics.counter(f"proxy.flows.{kind}").inc()
        flow.task = asyncio.ensure_future(self._flow_worker(conn, flow))
        await flow.queue.put(frame)

    async def _op(self, conn, flow: _ProxyFlow, frame: Frame) -> None:
        if frame.type == FrameType.BATCH_ADVANCE:
            protocol.decode_batch_advance(frame)  # see _open
        # A full queue stops this connection's read loop: the
        # backend's backpressure, chained to the client.
        await flow.queue.put(frame)

    def _drop(self, conn, flow: _ProxyFlow) -> None:
        """Cancel the flow's worker (unless we *are* it) and release
        its backend-side state."""
        if flow.task is not None and flow.task is not asyncio.current_task():
            flow.task.cancel()
        if flow.kind is BEAM:
            if flow.raw_client is not None:
                flow.raw_client.clear_raw_tap(flow.raw_fid)
                asyncio.ensure_future(
                    _finish_raw(flow.raw_client, flow.raw_fid)
                )
                flow.raw_client = None
        elif flow.remote is not None:
            asyncio.ensure_future(_finish_remote(flow.remote))
            flow.remote = None

    # ------------------------------------------------------------------
    # flow workers
    # ------------------------------------------------------------------
    async def _flow_worker(self, conn, flow: _ProxyFlow) -> None:
        try:
            while True:
                frame = await flow.queue.get()
                flow.busy = True
                try:
                    done = await self._execute(conn, flow, frame)
                finally:
                    flow.busy = False
                if done:
                    return
        except asyncio.CancelledError:
            raise
        except ServerFault as fault:
            await self._fail_flow(conn, flow, fault.code, fault.detail)
        except NoHealthyBackend as exc:
            await self._fail_flow(conn, flow, ErrorCode.FAILOVER, str(exc))
        except Exception as exc:  # noqa: BLE001 - fault barrier
            await self._fail_flow(
                conn, flow, ErrorCode.INTERNAL, f"proxy error: {exc}"
            )

    async def _execute(self, conn, flow: _ProxyFlow, frame: Frame) -> bool:
        """One queued frame — the flow table already vouched that its
        kind takes it; True ends the flow (and its worker)."""
        if flow.kind is BEAM:
            return await self._relay_beam(conn, flow, frame)
        ftype = frame.type
        if ftype == FrameType.OPEN_FLOW:
            _, flow.remote = await self._open_on_ring(
                flow, lambda c: c.open_flow()
            )
        elif ftype == FrameType.DATA:
            _fid, chunk = protocol.decode_data(frame)
            await self._replayable_op(flow, lambda r: r.send(chunk))
        else:
            # FINISH_FLOW. Results were held until now, which is what
            # makes scan failover invisible: no partial RESULT can have
            # escaped for a prefix the replacement backend re-scans.
            # The backend's record blocks go out unread under the
            # client's flow id.
            blocks = await self._replayable_op(
                flow, lambda r: r.finish_blocks()
            )
            flow.remote = None
            conn.table.close(flow)
            await conn.send(
                *protocol.relay_result_frames(
                    flow.flow_id, blocks, conn.peer_max_frame
                )
            )
            return True
        return False

    # -- beam relay ----------------------------------------------------
    async def _relay_beam(self, conn, flow: _ProxyBeam, frame: Frame) -> bool:
        """Relay undecoded (flow id rewritten); replies come back via
        :meth:`_beam_tap`. A lost backend is replayed (its stale tap
        dropped first), then the frames it never answered are re-sent.
        The tap ends the worker once the final RESULT has passed."""
        if frame.type == FrameType.OPEN_BEAM:
            flow.raw_client, flow.raw_fid = await self._open_on_ring(
                flow, _allocate
            )
            flow.raw_client.set_raw_tap(
                flow.raw_fid, self._beam_tap(conn, flow)
            )
        if frame is not _LOST:
            flow.sent.append(frame)
            if flow.lost is None:
                await _send_beam(flow, [frame])
        excluded: set[str] = set()
        while flow.lost is not None:
            flow.raw_client.clear_raw_tap(flow.raw_fid)
            await self._failover(flow, flow.lost, excluded)
            flow.lost = None
            flow.raw_client.set_raw_tap(
                flow.raw_fid, self._beam_tap(conn, flow)
            )
            await _send_beam(flow, list(flow.sent))
        return False

    def _beam_tap(self, conn, flow: _ProxyBeam):
        """What a beam's backend answers: MASKS moves the oldest sent
        frame to the acked journal and into the digest, an ERROR pops
        it (a survivable one moved nothing), a lifecycle ERROR or a
        dead connection loses the backend — the worker, woken, replays
        before it relays anything else."""

        async def tap(frame) -> None:
            if flow.lost is not None:
                return
            code = None
            if frame is not None and frame.type == FrameType.ERROR:
                _fid, code, detail = protocol.decode_error(frame)
            if frame is None or code in _LIFECYCLE_CODES:
                flow.lost = detail if code else "backend connection lost"
                with contextlib.suppress(asyncio.QueueFull):
                    flow.queue.put_nowait(_LOST)
                return
            if frame.type == FrameType.MASKS:
                flow.acked.append(flow.sent.popleft())
                flow.digest.update(memoryview(frame.payload)[4:])
                if 1 + len(frame.payload) > conn.peer_max_frame:
                    await self._fail_flow(
                        conn, flow, ErrorCode.FRAME_TOO_LARGE,
                        f"{1 + len(frame.payload)}-byte MASKS frame, "
                        f"limit {conn.peer_max_frame}",
                    )
                    return
            elif code is not None:
                flow.sent.popleft()
                if conn.table.fault(flow, code):
                    # Flow-fatal (UNKNOWN_VOCAB, ...): the backend has
                    # dropped it too.
                    self._end_beam(flow)
            elif frame.payload[4]:
                # Final RESULT: the close handshake completed.
                conn.table.close(flow)
                self._end_beam(flow)
            await conn.send(_rewrite_flow_id(frame, flow.flow_id))

        return tap

    async def _replay_beam(self, flow: _ProxyBeam, client) -> None:
        """Re-send the acked journal to ``client``'s backend, hashing
        the replies: the digest of what was forwarded, or FAILOVER.
        Equal replies leave its delta base equal to the client's rows."""
        fid = client.allocate_flow_id()
        replies: asyncio.Queue = asyncio.Queue()
        client.set_raw_tap(fid, replies.put)
        digest = hashlib.sha256()
        try:
            for frame in flow.acked:
                await client.send_raw(_rewrite_flow_id(frame, fid))
            for _frame in flow.acked:
                reply = await asyncio.wait_for(
                    replies.get(), self.request_timeout
                )
                if reply is None:
                    raise ConnectionResetError("backend lost in replay")
                if reply.type != FrameType.MASKS:
                    raise ServerFault(
                        flow.flow_id, ErrorCode.FAILOVER,
                        f"replay answered {reply.name}",
                    )
                digest.update(memoryview(reply.payload)[4:])
            if digest.digest() != flow.digest.digest():
                raise ServerFault(
                    flow.flow_id, ErrorCode.FAILOVER,
                    "replayed masks differ from those already sent",
                )
        except BaseException:
            client.clear_raw_tap(fid)
            asyncio.ensure_future(_finish_raw(client, fid))
            raise
        flow.raw_client, flow.raw_fid = client, fid

    def _end_beam(self, flow: _ProxyBeam) -> None:
        """The backend is done with the flow: drop the tap, and the
        worker with nothing left to relay."""
        if flow.raw_client is not None:
            flow.raw_client.clear_raw_tap(flow.raw_fid)
            flow.raw_client = None
        if flow.task is not None and flow.task is not asyncio.current_task():
            flow.task.cancel()

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

    async def _aggregate_stats(self, _method, _query) -> tuple[str, str]:
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
        return "200 OK", json.dumps(merged, indent=2, sort_keys=True) + "\n"

    async def _aggregate_metrics(self, _method, _query) -> tuple[str, str]:
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
        return "200 OK", merge_expositions(parts)

    async def _admin_healthz(self, _method, _query) -> tuple[str, str]:
        if any(b.healthy for b in self.backends.values()):
            return "200 OK", "ok\n"
        return "503 Service Unavailable", "no healthy backends\n"


# ----------------------------------------------------------------------
# abandoned-flow hygiene
# ----------------------------------------------------------------------
async def _finish_remote(remote) -> None:
    with contextlib.suppress(Exception):
        await remote.finish_blocks(timeout=2.0)


async def _finish_raw(client: ScanClient, raw_fid: int) -> None:
    with contextlib.suppress(Exception):
        await client.send_raw(protocol.encode_finish_flow(raw_fid))


async def _allocate(client: ScanClient) -> int:
    return client.allocate_flow_id()


async def _send_beam(flow: _ProxyBeam, frames) -> None:
    """Relay ``frames`` to the beam's backend; a failed send loses it."""
    try:
        for frame in frames:
            await flow.raw_client.send_raw(
                _rewrite_flow_id(frame, flow.raw_fid)
            )
    except _BACKEND_FAULTS as exc:
        flow.lost = exc
