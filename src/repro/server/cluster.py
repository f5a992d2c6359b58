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
No flow passes through the proxy: its HELLO hands each client the
consistent-hash ring (:class:`~repro.server.ring.HashRing`) of healthy
backends, re-sent on every ejection and readmission, and
:class:`~repro.server.client.ScanClient` places, dials and fails over
every flow itself, scan and beam (a backend scans on one thread: N
cores are N backends). Any OPEN at the proxy is ``REDIRECT``. Since a
greeted connection carries no traffic, the idle timeout guards only
the handshake (and the admin endpoint's reads): a client idle for
hours still receives every ring push.

Health & admin
--------------
A probe task polls each backend (admin ``/healthz`` when an admin port
is configured, a bare TCP dial otherwise) every ``health_interval``
seconds; a failure ejects the backend from the ring handed to clients,
a recovery readmits it. The admin endpoint aggregates the fleet:
``/healthz`` is ok while any backend is, ``/stats`` nests each
backend's under its name beside the ring, and ``/metrics`` labels
every backend's samples ``backend="host:port"``.
"""

from __future__ import annotations

import asyncio
import contextlib
import ipaddress
import json

from repro.server.client import ConnectFailed, ScanClient
from repro.server.endpoint import Connection, FramedEndpoint, reap
from repro.server.protocol import DEFAULT_MAX_FRAME, Frame
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
    """One backend's address and health."""

    def __init__(self, spec: BackendSpec) -> None:
        self.spec = spec
        self.healthy = True
        self.last_error: str | None = None

    @property
    def name(self) -> str:
        return self.spec.name

    def describe(self) -> dict:
        return {
            "host": self.spec.host,
            "port": self.spec.port,
            "admin_port": self.spec.admin_port,
            "healthy": self.healthy,
            "last_error": self.last_error,
        }


def _loopback(host: str) -> bool:
    try:
        return host == "localhost" or ipaddress.ip_address(host).is_loopback
    except ValueError:  # a host name: it may be anywhere
        return False


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
    membership and health, and hands clients the ring their flows go
    to (see the module docstring).
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
        self.backends = {spec.name: _Backend(spec) for spec in specs}
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

    async def _shutdown(self, drain: bool) -> None:
        await reap(self._health_task)

    def grammar_refs(self) -> tuple[str, ...]:
        return self._grammars

    def hello_ring(self) -> tuple[str, ...]:
        return self.ring.members

    def _redirect(self) -> str:
        return "flows open on a ring member: " + (
            ", ".join(self.hello_ring()) or "none is healthy"
        )

    def _hello(self, conn: Connection, frame: Frame) -> None:
        super()._hello(conn, frame)
        if conn.greeted:  # only ring pushes cross it now: never reaped
            conn.idle_timer.cancel()

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
            client = ScanClient(
                backend.spec.host, backend.spec.port,
                connect_timeout=PROBE_TIMEOUT, connect_retries=1,
            )
            try:
                await client.connect()
            except _BACKEND_FAULTS:
                continue
            await client.close()
            for ref in client.server_grammars:
                if ref not in seen:
                    seen.append(ref)
        self._grammars = tuple(seen)

    def _note_backend_error(self, backend: _Backend, exc) -> None:
        backend.last_error = str(exc) or exc.__class__.__name__
        if backend.healthy:
            backend.healthy = False
            self.ring.remove(backend.name)
            self.metrics.counter("proxy.backend.ejected").inc()
            self._ring_changed()

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
