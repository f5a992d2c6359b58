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
:class:`HashRing` of virtual nodes (:data:`RING_REPLICAS` per backend,
blake2b-placed), and the lookup walks the ring to the first *healthy*
backend. Adding or removing one backend therefore only remaps the
flows that hashed to it — the rest of the fleet keeps its affinity.

Relay and failover
------------------
Every flow kind is relayed one way: the proxy rewrites the flow id and
forwards the frame to the backend's one
:class:`~repro.server.client.ScanClient` connection, and the backend's
replies come back through that client's raw tap, re-addressed the same
way — a beam's delta chain and a scan's record blocks pass unread. One
connection per backend is all a backend can use: a
:class:`~repro.server.server.ScanServer` scans on one thread, so N
cores are N backends, not N connections into one.
Per flow the proxy keeps a journal of the client frames it accepted,
the count of replies it forwarded with a sha256 over them (beam MASKS;
a scan forwards nothing before its final RESULT) and the RESULT record
blocks, held until the final one — so no partial result escapes before
FINISH.

A backend's replies are a pure function of a flow's history (the
engines are deterministic automata), so one routine,
:meth:`ScanProxy._place`, opens a flow and fails it over: walk the
ring, re-send the journal's answered prefix and require the digest of
what was already forwarded (so a beam's delta base is the client's
rows), install the live tap, send the journal's unanswered tail. A
lost backend (connection cut, a DRAINING or IDLE_TIMEOUT error, a
failed send) starts it again; no backend left, a digest mismatch or an
ERROR in the replay is ``ERROR(FAILOVER)``. Placement starts eagerly
inside the client connection's read callback, and a task exists only
while it waits (a dial, the backend's dial lock, a replay); meanwhile
the flow's later frames are only journaled, and the connection's other
flows keep moving. Otherwise frames go out from the read callback. Backpressure
chains both ways: a backend that stops reading stops the proxy reading
the clients that feed it, and a client that stops reading stops the
taps of its backend connections.

Health & admin
--------------
A probe task polls each backend (admin ``/healthz`` when an admin
port is configured, a bare TCP dial otherwise) every
``health_interval`` seconds; failures eject the backend from routing
and close its connection (which fails the pinned flows over),
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

#: Virtual nodes per backend on the hash ring.
RING_REPLICAS = 64
#: Deadline (s) of a backend dial, a health probe and an admin fetch.
PROBE_TIMEOUT = 1.0
#: How long (s) a replayed beam op waits for its MASKS reply.
REQUEST_TIMEOUT = 30.0


class NoHealthyBackend(ServerFault):
    """Every candidate backend is ejected or unreachable: the flow's
    ``FAILOVER``."""


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

    def __init__(self, replicas: int = RING_REPLICAS) -> None:
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
# backend connections
# ----------------------------------------------------------------------
class _Backend:
    """Live state for one backend: health plus the one client
    connection the flows pinned here share."""

    def __init__(self, spec: BackendSpec, proxy: "ScanProxy") -> None:
        self.spec = spec
        self.proxy = proxy
        self.healthy = True
        self.last_error: str | None = None
        self._client: ScanClient | None = None
        self._lock = asyncio.Lock()

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def connected(self) -> bool:
        return self._client is not None and self._client.connected

    async def acquire(self) -> ScanClient:
        """The backend's connected client, dialed under the lock when
        there is none or its connection has died."""
        async with self._lock:
            if self.connected:
                return self._client
            client = ScanClient(
                self.spec.host,
                self.spec.port,
                connect_timeout=PROBE_TIMEOUT,
                connect_retries=2,
                retry_backoff=0.05,
                request_timeout=REQUEST_TIMEOUT,
                max_frame=self.proxy.max_frame,
            )
            await client.connect()
            self._client = client
            return client

    async def close(self) -> None:
        client, self._client = self._client, None
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
            "connected": self.connected,
        }


# ----------------------------------------------------------------------
# per-connection / per-flow proxy state
# ----------------------------------------------------------------------
class _ProxyFlow(Flow):
    """One relayed client flow, and all a placement needs.

    The backend holds it as flow ``fid`` on ``client`` (None while it
    is unplaced). ``journal`` is every client frame the flow table
    accepted, in order (all of it sent to a placed flow's backend),
    and the backend answered ``journal[:answered]`` — the frames whose
    MASKS reply was forwarded, and ``digest`` is a sha256 over those
    payloads past the flow id (a survivable ``BAD_TOKEN`` moved
    nothing, so its frame leaves the journal). ``blocks`` are the
    RESULT record blocks held until the final one. Both keep copies: a
    view of a frame would pin its whole read for as long as the flow
    lives."""

    __slots__ = (
        "kind", "key", "backend", "client", "fid", "journal",
        "answered", "digest", "blocks", "placing", "excluded",
    )

    def __init__(
        self, flow_id: int, kind: FlowKind, key: str, opener: Frame
    ) -> None:
        super().__init__(flow_id)
        self.kind = kind
        self.key = key
        #: The backend the flow is (or was last) placed on.
        self.backend: _Backend | None = None
        self.client: ScanClient | None = None
        self.fid = 0
        self.journal: list[Frame] = [_copy(opener)]
        self.answered = 0
        self.digest = hashlib.sha256()
        self.blocks: list[bytes] = []
        #: The task placing the flow on a backend, while one is (True
        #: while its first, eager step runs).
        self.placing: asyncio.Task | bool | None = None
        #: Backends the running placement gave up on.
        self.excluded: set[str] = set()

    @property
    def owed(self) -> bool:
        """A reply is owed to the client: the flow is being placed, its
        FINISH was taken and no final RESULT came, or a beam op is
        unanswered."""
        return (
            self.placing is not None
            or self.finishing
            or (self.kind is BEAM and self.answered < len(self.journal))
        )


def _copy(frame: Frame) -> Frame:
    return Frame(frame.type, bytes(frame.payload))


def _rewrite_flow_id(frame: Frame, flow_id: int) -> bytes:
    """Re-emit a frame with its leading u32 flow id replaced — the
    whole translation a relay needs, leaving delta chains and record
    blocks untouched."""
    return protocol.encode_frame(
        frame.type, flow_id.to_bytes(4, "big") + frame.payload[4:]
    )


def _relay(client: ScanClient, fid: int, frame: Frame) -> None:
    """Queue a client frame to ``client``'s backend as flow ``fid``; a
    DATA body larger than the backend's frame limit goes as several."""
    limit = max(1, client.server_max_frame - 5)  # type byte + flow id
    if frame.type != FrameType.DATA or len(frame.payload) - 4 <= limit:
        client.queue_raw(_rewrite_flow_id(frame, fid))
        return
    body = frame.payload[4:]
    for start in range(0, len(body), limit):
        client.queue_raw(
            protocol.encode_data(fid, body[start : start + limit])
        )


def _finish_raw(client: ScanClient, fid: int) -> None:
    """Abandon a backend flow (its late replies find no tap)."""
    with contextlib.suppress(Exception):
        client.queue_raw(protocol.encode_finish_flow(fid))


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
    one relay and failover contract every flow kind shares).
    """

    role = "proxy"

    def __init__(
        self,
        backends,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        admin_port: int | None = None,
        health_interval: float = 0.5,
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
        self.health_interval = health_interval

        self.ring = HashRing()
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
        return any(flow.owed for flow in conn.flows.values())

    async def _shutdown(self, drain: bool) -> None:
        await reap(self._health_task)
        for backend in self.backends.values():
            await backend.close()

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
            self.metrics.counter("proxy.backend.ejected").inc()
            self._refresh_gauges()
            # Close the connection so every flow pinned here fails over
            # promptly instead of waiting out request timeouts.
            asyncio.ensure_future(backend.close())

    def _readmit(self, backend: _Backend) -> None:
        if not backend.healthy:
            backend.healthy = True
            backend.last_error = None
            self.metrics.counter("proxy.backend.readmitted").inc()
            self._refresh_gauges()

    def _refresh_gauges(self) -> None:
        self.metrics.gauge("proxy.backends.total").set(
            len(self.backends)
        )
        self.metrics.gauge("proxy.backends.healthy").set(
            sum(1 for b in self.backends.values() if b.healthy)
        )

    async def _place(self, conn, flow: _ProxyFlow) -> None:
        """Put ``flow`` on a backend and bring that up to date — its
        first open and every failover: :meth:`_attach` to the ring's
        first working backend, then send it the journal's unanswered
        tail (frames the client sends meanwhile are only journaled, and
        go out here, in order). A backend lost on the way starts the
        walk again; a flow that cannot be placed ends with its typed
        ERROR."""
        try:
            while flow.client is None:
                await self._attach(conn, flow)
                for frame in flow.journal[flow.answered :]:
                    self._forward(conn, flow, frame)
                    if flow.client is None:
                        break
            flow.excluded.clear()
        except ServerFault as fault:
            self._fail_flow(conn, flow, fault.code, fault.detail)
        except Exception as exc:  # noqa: BLE001 - fault barrier
            self._fail_flow(
                conn, flow, ErrorCode.INTERNAL, f"proxy error: {exc}"
            )
        finally:
            flow.placing = None

    async def _attach(self, conn, flow: _ProxyFlow) -> None:
        """Walk the ring to the first backend that takes ``flow``: a
        fresh flow id there, the journal's answered prefix replayed
        onto it (:meth:`_replay`), then the live tap. Backend faults
        rotate to the next candidate; none left is ``FAILOVER``."""
        last = flow.backend.last_error if flow.backend else None
        while True:
            backend = self._pick_backend(flow.key, flow.excluded)
            if backend is None:
                if flow.backend is not None:
                    self.metrics.counter("proxy.failover.exhausted").inc()
                raise NoHealthyBackend(
                    flow.flow_id,
                    ErrorCode.FAILOVER,
                    f"no healthy backend left for flow {flow.key}"
                    + (f" (last: {last})" if last else ""),
                )
            try:
                client = await backend.acquire()
                fid = client.allocate_flow_id()
                if flow.answered:
                    await self._replay(flow, client, fid)
            except _BACKEND_FAULTS as exc:
                last = exc
                flow.excluded.add(backend.name)
                self._note_backend_error(backend, exc)
                continue
            break
        if flow.backend is not None:
            self.metrics.counter("proxy.failovers").inc()
        flow.backend, flow.client, flow.fid = backend, client, fid
        client.set_raw_tap(fid, self._tap(conn, flow, client, fid))

    async def _replay(self, flow: _ProxyFlow, client, fid: int) -> None:
        """Re-send the journal's answered prefix to ``client`` as
        ``fid``, hashing the replies instead of forwarding them: the
        digest of what was forwarded, or FAILOVER. Equal replies leave
        the backend's delta base equal to the client's rows."""
        replies: asyncio.Queue = asyncio.Queue()
        client.set_raw_tap(fid, replies.put)
        digest = hashlib.sha256()
        try:
            for frame in flow.journal[: flow.answered]:
                _relay(client, fid, frame)
            for _ in range(flow.answered):
                reply = await asyncio.wait_for(
                    replies.get(), REQUEST_TIMEOUT
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
            _finish_raw(client, fid)
            raise

    def _forward(self, conn, flow: _ProxyFlow, frame: Frame) -> None:
        """Send one journaled frame to the flow's backend; a failed
        send loses the backend. A backend that stops reading stops this
        connection reading: its backpressure, chained to the client."""
        client = flow.client
        try:
            _relay(client, flow.fid, frame)
        except _BACKEND_FAULTS as exc:
            if flow.client is client:
                self._lose(conn, flow, exc)
            return
        if client.paused:
            conn.run(client.writable())

    def _lose(self, conn, flow: _ProxyFlow, fault) -> None:
        """The flow's backend is gone: drop what it sent, and place the
        flow again — now, or in the placement already running."""
        self._detach(flow)
        flow.excluded.add(flow.backend.name)
        self._note_backend_error(flow.backend, fault)
        flow.blocks.clear()
        if flow.placing is None:
            self._start_placing(conn, flow)

    def _start_placing(self, conn, flow: _ProxyFlow) -> None:
        """Run :meth:`_place` now: to the end when nothing needs waiting
        for (a connected backend, no replay), else as a task
        the flow's later frames wait behind."""
        flow.placing = True
        task = protocol.start_eagerly(self._place(conn, flow))
        if flow.placing is not None:
            flow.placing = task

    @staticmethod
    def _detach(flow: _ProxyFlow) -> None:
        """Stop listening to the flow's backend."""
        if flow.client is not None:
            flow.client.clear_raw_tap(flow.fid)
            flow.client = None

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
                    timeout=PROBE_TIMEOUT,
                )
                return status == 200
            except _BACKEND_FAULTS:
                return False
        try:
            _, writer = await asyncio.wait_for(
                asyncio.open_connection(spec.host, spec.port),
                PROBE_TIMEOUT,
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
    def _open(self, conn, kind, flow_id: int, frame: Frame) -> None:
        if kind is BEAM:
            # Relayed unread, so checked here: a malformed frame is the
            # client connection's fault, as on a server — it must not
            # reach (and be replayed onto) backend connections.
            protocol.decode_open_beam(frame)
        flow = _ProxyFlow(flow_id, kind, f"{conn.conn_id}:{flow_id}", frame)
        conn.table.open(flow)
        self.metrics.counter(f"proxy.flows.{kind}").inc()
        self._start_placing(conn, flow)

    def _op(self, conn, flow: _ProxyFlow, frame: Frame) -> None:
        if frame.type == FrameType.BATCH_ADVANCE:
            protocol.decode_batch_advance(frame)  # see _open
        flow.journal.append(_copy(frame))
        if flow.placing is None:
            self._forward(conn, flow, frame)  # else: _place sends it

    def _drop(self, conn, flow: _ProxyFlow) -> None:
        """Cancel the flow's placement (unless we *are* it) and abandon
        its backend flow."""
        placing = flow.placing
        if (
            isinstance(placing, asyncio.Task)
            and placing is not asyncio.current_task()
        ):
            placing.cancel()
        client, fid = flow.client, flow.fid
        if client is not None:
            self._detach(flow)
            _finish_raw(client, fid)

    def _tap(self, conn, flow: _ProxyFlow, client, fid: int):
        """What the flow's backend answers, re-addressed to the client.
        MASKS is forwarded and counted into the digest; RESULT blocks
        are held, and the final one sends them all (unread:
        :func:`~repro.server.protocol.relay_result_frames`) and closes
        the flow; an ERROR is forwarded with the lifecycle table's
        effect. A dead connection or a lifecycle ERROR loses the
        backend — the tap never awaits a replay itself. It runs in the
        backend connection's read callback, and waits (so that
        connection stops reading) while the client does not read."""

        async def tap(frame) -> None:
            if flow.client is not client or flow.fid != fid:
                return  # a backend the flow has left
            if frame is None:
                self._lose(conn, flow, "backend connection lost")
                return
            ftype = frame.type
            if ftype == FrameType.MASKS:
                flow.answered += 1
                flow.digest.update(memoryview(frame.payload)[4:])
                size = 1 + len(frame.payload)
                if size > conn.peer_max_frame:
                    self._fail_flow(
                        conn, flow, ErrorCode.FRAME_TOO_LARGE,
                        f"{size}-byte MASKS frame, "
                        f"limit {conn.peer_max_frame}",
                    )
                else:
                    conn.queue(_rewrite_flow_id(frame, flow.flow_id))
            elif ftype == FrameType.RESULT:
                _fid, final, block = protocol.split_result(frame)
                flow.blocks.append(bytes(block))
                if final:
                    self._detach(flow)
                    conn.table.close(flow)
                    conn.queue(
                        *protocol.relay_result_frames(
                            flow.flow_id, flow.blocks, conn.peer_max_frame
                        )
                    )
            else:
                _fid, code, detail = protocol.decode_error(frame)
                if code in _LIFECYCLE_CODES:
                    self._lose(conn, flow, detail)
                    return
                if code in flow.kind.survives:
                    # The refused op moved nothing: no replay re-sends it.
                    del flow.journal[flow.answered]
                else:
                    self._detach(flow)  # the backend dropped the flow too
                self._fail_flow(conn, flow, code, detail)
            await conn.writable()

        return tap

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
                timeout=PROBE_TIMEOUT,
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
