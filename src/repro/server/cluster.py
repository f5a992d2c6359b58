"""Cluster tier: the control plane over N scan-server backends.

The paper's device scales by replicating the tagger across ports of
one reconfigurable fabric; the software reproduction scales the same
way one tier up. :class:`ScanProxy` is the same
:class:`~repro.server.endpoint.FramedEndpoint` a
:class:`~repro.server.server.ScanServer` is, consulting the same
lifecycle table (:mod:`repro.server.flows`, DESIGN.md §8), so what a
client may send when — and the ERROR that answers what it may not —
cannot differ between the two.

Routing
-------
Flows are pinned to backends by consistent hashing
(:class:`~repro.server.ring.HashRing`): a flow's key lands on the
ring, and placement walks it to the first healthy backend, so adding
or removing one remaps only the flows that hashed to it. Scan flows
never pass through the proxy: its HELLO hands each client the ring of
healthy backends (re-sent on every ejection and readmission), and
:class:`~repro.server.client.ScanClient` places, dials and fails over
scan flows itself. A scan OPEN_FLOW at the proxy is ``REDIRECT``.

Relay and failover (beam flows)
-------------------------------
A beam is relayed with its flow id rewritten to the backend's one
:class:`~repro.server.client.ScanClient` connection (a backend scans
on one thread: N cores are N backends), and the replies come back
through that client's raw tap, re-addressed — the delta chain passes
unread. Per flow the proxy journals the client frames it accepted and
counts the MASKS replies it forwarded under a sha256. Replies are a
pure function of a flow's history, so one routine,
:meth:`ScanProxy._place`, opens a flow and fails it over: walk the
ring, replay the journal's answered prefix and require the digest of
what was forwarded, install the tap, send the unanswered tail. A lost
backend (connection cut, DRAINING, IDLE_TIMEOUT, a failed send) starts
it again; no backend left, a digest mismatch or an ERROR in the replay
is ``ERROR(FAILOVER)``. Placement starts eagerly in the client
connection's read callback and is a task only while it waits (a dial
or a replay); the flow's later frames are journaled
meanwhile, and the connection's other flows keep moving. Backpressure
chains both ways: a backend that stops reading stops the proxy reading
the clients that feed it, and a client that stops reading stops the
taps of its backend connections.

Health & admin
--------------
A probe task polls each backend (admin ``/healthz`` when an admin port
is configured, a bare TCP dial otherwise) every ``health_interval``
seconds; a failure ejects the backend from the ring handed to clients
and closes its connection (failing its beams over), a recovery
readmits it. The admin endpoint aggregates the fleet: ``/healthz`` is
ok while any backend is, ``/stats`` nests each backend's under its name
beside the ring, and ``/metrics`` labels every backend's samples
``backend="host:port"``.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import ipaddress
import json

from repro.server import protocol
from repro.server.client import ConnectFailed, ScanClient
from repro.server.endpoint import Connection, FramedEndpoint, reap
from repro.server.flows import BEAM, LIFECYCLE_CODES, Flow
from repro.server.protocol import (
    DEFAULT_MAX_FRAME,
    ErrorCode,
    Frame,
    FrameType,
    ServerFault,
)
from repro.server.ring import HashRing
from repro.service.metrics import MetricsRegistry, merge_expositions

__all__ = [
    "BackendSpec",
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

#: Deadline (s) of a backend dial, a health probe and an admin fetch.
PROBE_TIMEOUT = 1.0
#: How long (s) a replayed beam op waits for its MASKS reply.
REQUEST_TIMEOUT = 30.0


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
# backend connections
# ----------------------------------------------------------------------
class _Backend:
    """One backend's health and the one connection its beams share."""

    def __init__(self, spec: BackendSpec, proxy: "ScanProxy") -> None:
        self.spec = spec
        self.links = proxy._links
        self.healthy = True
        self.last_error: str | None = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def connected(self) -> bool:
        return self.links.linked(self.name)

    async def acquire(self) -> ScanClient:
        return await self.links.member(self.name)

    async def close(self) -> None:
        await self.links.unlink(self.name)

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
    """One relayed beam flow: the backend holds it as flow ``fid`` on
    ``client`` (None while unplaced). ``journal`` is every client frame
    the table accepted (copies: a view pins its read), all sent to a
    placed flow's backend, which answered ``journal[:answered]`` with
    the MASKS ``digest`` hashes past the flow id (a survivable
    ``BAD_TOKEN`` moved nothing: its frame leaves the journal)."""

    __slots__ = (
        "key", "backend", "client", "fid", "journal", "answered", "digest",
        "placing", "excluded",
    )

    kind = BEAM

    def __init__(self, flow_id: int, key: str, opener: Frame) -> None:
        super().__init__(flow_id)
        self.key = key
        #: The backend the flow is (or was last) placed on.
        self.backend: _Backend | None = None
        self.client: ScanClient | None = None
        self.fid = 0
        self.journal: list[Frame] = [_copy(opener)]
        self.answered = 0
        self.digest = hashlib.sha256()
        #: The task placing the flow on a backend, while one is (True
        #: while its first, eager step runs).
        self.placing: asyncio.Task | bool | None = None
        #: Backends the running placement gave up on.
        self.excluded: set[str] = set()

    @property
    def owed(self) -> bool:
        """A reply is owed to the client: the flow is being placed, or
        a journaled op (FINISH_FLOW included) is unanswered."""
        return self.placing is not None or self.answered < len(self.journal)


def _loopback(host: str) -> bool:
    try:
        return host == "localhost" or ipaddress.ip_address(host).is_loopback
    except ValueError:  # a host name: it may be anywhere
        return False


def _copy(frame: Frame) -> Frame:
    return Frame(frame.type, bytes(frame.payload))


def _rewrite_flow_id(frame: Frame, flow_id: int) -> bytes:
    """Re-emit a frame with its leading u32 flow id replaced — the
    whole translation a relay needs, leaving delta chains untouched."""
    return protocol.encode_frame(
        frame.type, flow_id.to_bytes(4, "big") + frame.payload[4:]
    )


def _finish_raw(client: ScanClient, fid: int) -> None:
    """Abandon a backend flow (its late replies find no tap)."""
    with contextlib.suppress(Exception):
        client.queue_raw(protocol.encode_finish_flow(fid))


async def _admin_get(spec: BackendSpec, path: str) -> str | None:
    """The body of a backend admin endpoint's 200 reply to GET
    ``path`` (None: it has no admin port, or the fetch failed)."""
    if spec.admin_port is None:
        return None
    try:
        status, body = await _http_get(
            spec.host, spec.admin_port, path, PROBE_TIMEOUT
        )
    except _BACKEND_FAULTS:
        return None
    return body if status == 200 else None


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

    Clients connect to :attr:`address` as they would to a
    :class:`~repro.server.server.ScanServer`; the proxy owns
    membership, health and the beam relay, and hands clients the ring
    their scan flows go to (see the module docstring).
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
        # Clients dial the backend addresses the proxy hands out.
        local = [s.name for s in specs if _loopback(s.host)]
        if local and not _loopback(host):
            raise ValueError(
                f"backends {local} are loopback addresses: clients of a "
                f"proxy on {host!r} would dial them on their own host"
            )
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

        #: The one connection per backend its beams share, dialed as a
        #: client dials its ring.
        self._links = ScanClient(
            connect_timeout=PROBE_TIMEOUT, retry_backoff=0.05,
            request_timeout=REQUEST_TIMEOUT, max_frame=max_frame,
        )
        self.backends = {spec.name: _Backend(spec, self) for spec in specs}
        self.ring = HashRing(self.backends)
        self._ring_pushes = self.metrics.counter("proxy.ring.pushes")

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
        await self._links.close()

    def grammar_refs(self) -> tuple[str, ...]:
        return self._grammars

    def hello_ring(self) -> tuple[str, ...]:
        return self.ring.members

    def _redirect(self, kind) -> str | None:
        if kind is BEAM:
            return None
        return "scan flows open on a ring member: " + (
            ", ".join(self.hello_ring()) or "none is healthy"
        )

    def _ring_changed(self) -> None:
        """A backend left or rejoined the ring: every client is sent
        this proxy's HELLO again, carrying the new ring."""
        self._refresh_gauges()
        hello = self._hello_frame()
        for conn in self._connections.values():
            if conn.greeted:
                conn.queue(hello)
                self._ring_pushes.inc()

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
            if name not in exclude:
                return self.backends[name]
        return None

    def _note_backend_error(self, backend: _Backend, exc) -> None:
        backend.last_error = str(exc) or exc.__class__.__name__
        if backend.healthy:
            backend.healthy = False
            self.ring.remove(backend.name)
            self.metrics.counter("proxy.backend.ejected").inc()
            self._ring_changed()
            # Close the connection so every flow pinned here fails over
            # promptly instead of waiting out request timeouts.
            asyncio.ensure_future(backend.close())

    def _readmit(self, backend: _Backend) -> None:
        if not backend.healthy:
            backend.healthy = True
            self.ring.add(backend.name)
            backend.last_error = None
            self.metrics.counter("proxy.backend.readmitted").inc()
            self._ring_changed()

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
                raise ServerFault(
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
                client.queue_raw(_rewrite_flow_id(frame, fid))
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
            client.queue_raw(_rewrite_flow_id(frame, flow.fid))
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
        if flow.placing is None:
            self._start_placing(conn, flow)

    def _start_placing(self, conn, flow: _ProxyFlow) -> None:
        """Run :meth:`_place` now: to the end when nothing needs waiting
        for, else as a task the flow's later frames wait behind."""
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
            return await _admin_get(spec, "/healthz") is not None
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
        # Relayed unread, so checked here: a malformed frame is the
        # client connection's fault, as on a server — it must not
        # reach (and be replayed onto) backend connections.
        protocol.decode_open_beam(frame)
        flow = _ProxyFlow(flow_id, f"{conn.conn_id}:{flow_id}", frame)
        conn.table.open(flow)
        self.metrics.counter("proxy.flows.beam").inc()
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
        MASKS is forwarded and counted into the digest; the final
        RESULT (FINISH_FLOW's answer) is forwarded and closes the
        flow; an ERROR is forwarded with the lifecycle table's
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
                self._detach(flow)
                conn.table.close(flow)
                conn.queue(_rewrite_flow_id(frame, flow.flow_id))
            else:
                _fid, code, detail = protocol.decode_error(frame)
                if code in LIFECYCLE_CODES:
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
            "members": list(self.hello_ring()),
            "replicas": self.ring.replicas,
        }
        snapshot["connections_open"] = len(self._connections)
        snapshot["flows_open"] = sum(
            len(c.flows) for c in self._connections.values()
        )
        snapshot["grammars"] = list(self._grammars)
        return snapshot

    async def _fetch_all(self, path: str):
        """(name, reply body or None) of every backend's admin endpoint."""
        bodies = await asyncio.gather(
            *(_admin_get(b.spec, path) for b in self.backends.values())
        )
        return zip(self.backends, bodies)

    async def _aggregate_stats(self, _method, _query) -> tuple[str, str]:
        merged = self.stats()
        for name, body in await self._fetch_all("/stats"):
            try:
                stats = None if body is None else json.loads(body)
            except ValueError:
                stats = None
            merged["backends"][name]["stats"] = stats
        return "200 OK", json.dumps(merged, indent=2, sort_keys=True) + "\n"

    async def _aggregate_metrics(self, _method, _query) -> tuple[str, str]:
        self.stats()  # refresh own gauges
        parts = [({}, self.metrics.render_prometheus())]
        for name, body in await self._fetch_all("/metrics"):
            if body is not None:
                parts.append(({"backend": name}, body))
        return "200 OK", merge_expositions(parts)

    async def _admin_healthz(self, _method, _query) -> tuple[str, str]:
        if any(b.healthy for b in self.backends.values()):
            return "200 OK", "ok\n"
        return "503 Service Unavailable", "no healthy backends\n"
