"""The asyncio serving edge: framed TCP front-end for the scan engines.

This is the reproduction's answer to the paper's deployment picture
(Figs. 1, 12-14): the tagger as a *network device*. A
:class:`ScanServer` listens on TCP, speaks the
:mod:`repro.server.protocol` framing, and feeds each connection's
multiplexed flows through per-flow streaming sessions — either
in-process (``workers=0``: the connection handler drives a
:class:`~repro.core.api.StreamSession` directly) or through a shared
sharded :class:`~repro.service.ScanService` pool (``workers=N``).

Robustness model
----------------
* **Idle timeout** — a connection that sends nothing for
  ``idle_timeout`` seconds is answered with ``ERROR(IDLE_TIMEOUT)``
  and closed; per-flow state is discarded.
* **Frame-size limit** — a declared frame length above ``max_frame``
  is rejected before the body is read (``ERROR(FRAME_TOO_LARGE)``,
  close), so a hostile length prefix cannot balloon memory.
* **Backpressure, write side** — a connection's frames are handled a
  socket read at a time; what the read's frames produced (the results
  of consecutive DATA frames of a flow in one RESULT) is written once
  and awaited with ``drain()`` against a bounded transport buffer
  (``write_high_water``) before the next read: a consumer that stops
  reading suspends the connection's handler, which therefore stops
  *reading* too, and the stall propagates to the producer as TCP flow
  control. The server never buffers results for a slow client beyond
  one transport buffer plus one read's worth.
* **Backpressure, scan side** — with a service pool the server
  submits with ``backpressure="raise"``; :class:`QueueFull` pauses
  the connection's read loop (counted in
  ``server.backpressure.waits``) until the shard has room, instead of
  buffering chunks. A full queue is thus visible to the client as the
  socket filling up — exactly a hardware FIFO deasserting *ready*.
* **Graceful drain** — :meth:`stop` (and SIGTERM in the CLI) stops
  accepting connections, rejects *new* flows with ``ERROR(DRAINING)``,
  but lets every already-open flow stream to completion (its DATA and
  FINISH_FLOW are still honored and its final RESULT delivered), up to
  the drain timeout; then says GOODBYE and closes, discarding flows
  that never finished.
* **Hot swap** — with a grammar registry attached, ``POST
  /swap?grammar=name@version`` on the admin listener loads the new
  artifact and installs it as a fresh *generation*: new OPEN_FLOWs
  bind to it immediately, while flows already open keep streaming on
  the generation (plan, tables, worker pool) they started on — the
  same drain discipline as :meth:`stop`, applied per grammar version.
  A generation with no remaining flows is retired (its worker pool
  closed). Per-tenant traffic is accounted under
  ``tenant.<ref>.*`` counters, and optional per-ref quotas bound the
  open flows a grammar version may hold (``ERROR(OVERLOADED)``).

* **Mask flows** — constrained-decoding sessions
  (:mod:`repro.apps.structgen`) ride the same framed connections:
  OPEN_MASK binds a flow to a precomputed mask table (explicit
  ``mask_tables=`` or lazily loaded from the registry for the served
  grammar, cold-start timed), each ADVANCE is answered with the MASK
  row for the resulting state. Mask sessions always run in-process on
  the event loop — a mask query is a row copy out of the table's
  state-complete matrix, far below the pool's dispatch cost.

Observability: counters/gauges/histograms land in one
:class:`~repro.service.metrics.MetricsRegistry` (shared with the
service pool when there is one), exposed as JSON via :meth:`stats`
and as Prometheus plaintext on the admin listener (``GET /metrics``,
plus ``/healthz`` and ``/stats``).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
import urllib.parse
from typing import Any

from repro.server import protocol
from repro.server.protocol import (
    CONNECTION_FLOW,
    DEFAULT_MAX_FRAME,
    ErrorCode,
    Frame,
    FrameType,
    PROTOCOL_VERSION,
    ProtocolError,
)
from repro.service.errors import QueueFull
from repro.service.metrics import MetricsRegistry

__all__ = ["ScanServer"]

#: Mask-table cold-start histogram bounds (milliseconds): registry
#: loads are tens of ms, in-process rebuilds hundreds to thousands.
MASK_COLDSTART_BOUNDS_MS = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
    200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0,
)


class _Flow:
    """Per-flow server state: the scan session (in-process mode) or
    the service flow key (pool mode), the grammar generation the flow
    is pinned to, plus timing for latency stats."""

    __slots__ = (
        "flow_id", "key", "session", "gen", "opened_at", "finishing",
        "mask", "beam", "beam_rows",
    )

    def __init__(self, flow_id: int, key: str, session, gen) -> None:
        self.flow_id = flow_id
        self.key = key
        self.session = session
        self.gen = gen
        self.opened_at = time.monotonic()
        self.finishing = False
        #: The MaskSession when this is a constrained-decoding flow.
        self.mask = None
        #: The BeamMaskSession when this is a beam flow.
        self.beam = None
        #: The rows most recently sent in a MASKS frame, lane-major in
        #: one buffer — the base the next frame's deltas patch against.
        self.beam_rows = b""


class _Generation:
    """One served grammar version: its spec plus either an in-process
    backend or a dedicated worker pool. Flows are pinned to the
    generation they opened under, which is what lets a hot swap leave
    in-flight flows scanning on the plan they started with."""

    __slots__ = (
        "gen_id", "ref", "spec", "backend", "service",
        "bytes", "flows_opened", "flows_finished", "flows_refused",
    )

    def __init__(self, gen_id: int, ref: str, spec, metrics) -> None:
        self.gen_id = gen_id
        #: Registry ref served by this generation (``"name@version"``),
        #: or the synthetic ``"default"`` for a spec-only server.
        self.ref = ref
        self.spec = spec
        self.backend = None
        self.service = None
        # The tenant's counters, looked up once rather than per frame.
        self.bytes = metrics.counter(f"tenant.{ref}.bytes")
        self.flows_opened = metrics.counter(f"tenant.{ref}.flows_opened")
        self.flows_finished = metrics.counter(
            f"tenant.{ref}.flows_finished"
        )
        self.flows_refused = metrics.counter(f"tenant.{ref}.flows_refused")


class _Connection:
    """One accepted connection: handshake, frame loop, flow registry,
    and the outbound side — frames queue up while a read's frames are
    handled and leave in one write."""

    def __init__(self, server: "ScanServer", reader, writer, conn_id: int):
        self.server = server
        self.reader = reader
        self.writer = writer
        self.conn_id = conn_id
        self.decoder = protocol.FrameDecoder(server.max_frame)
        self.flows: dict[int, _Flow] = {}
        self.peer_max_frame = DEFAULT_MAX_FRAME
        self.draining = False
        self.closed = False
        self._write_lock = asyncio.Lock()
        #: Encoded frames awaiting the next :meth:`flush`.
        self._out: list[bytes] = []
        #: Results of the DATA frames handled since the last frame of
        #: another kind or flow. They leave as one RESULT: with the
        #: flow's own next RESULT, or when anything else is queued or
        #: the read's frames run out.
        self._held_flow: int | None = None
        self._held: list = []

    # ------------------------------------------------------------------
    def add_results(self, flow_id: int, results: list) -> None:
        """Hold a DATA frame's results for the flow's next RESULT."""
        if self._held_flow != flow_id:
            self._queue_held()
            self._held_flow = flow_id
        self._held += results

    def queue_result(self, flow_id: int, final: bool, results: list):
        """Queue ``results`` (behind what is held for the same flow, in
        the same RESULT) as frames within the peer's limit."""
        if self._held_flow != flow_id:
            self._queue_held()
        held, self._held, self._held_flow = self._held, [], None
        self._queue_frames(flow_id, final, held + results)

    def _queue_held(self) -> None:
        """What is held leaves now, as a RESULT of its own."""
        if self._held:
            held, self._held = self._held, []
            self._queue_frames(self._held_flow, False, held)

    def _queue_frames(self, flow_id: int, final: bool, results: list):
        try:
            frames = protocol.encode_result_frames(
                flow_id, final, results, self.peer_max_frame
            )
        except ProtocolError as exc:
            # A record the peer's own frame limit has no room for.
            self.server.metrics.counter("server.errors.sent").inc()
            frames = [protocol.encode_error(flow_id, exc.code, str(exc))]
        self._out += frames
        self.server._tx_frames.inc(len(frames))

    def queue(self, frame_bytes: bytes) -> None:
        """Queue one encoded frame behind every result held so far
        (the wire keeps the order the frames were handled in)."""
        self._queue_held()
        self._out.append(frame_bytes)
        self.server._tx_frames.inc()

    async def flush(self) -> None:
        """Write everything queued in one go, under backpressure
        (bounded buffer + drain: a slow reader suspends us here, never
        grows memory)."""
        self._queue_held()
        if not self._out:
            return
        if self.closed:
            self._out.clear()
            return
        async with self._write_lock:
            # Whoever held the lock may have written ours too.
            if not self._out or self.closed:
                return
            blob = b"".join(self._out)
            self._out.clear()
            try:
                self.writer.write(blob)
                self.server._tx_bytes.inc(len(blob))
                await self.writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                self.closed = True

    async def send(self, frame_bytes: bytes) -> None:
        """Queue one encoded frame and write it (with whatever was
        queued ahead of it) now."""
        self.queue(frame_bytes)
        await self.flush()

    async def send_error(self, flow_id: int, code: int, message: str):
        self.server.metrics.counter("server.errors.sent").inc()
        await self.send(protocol.encode_error(flow_id, code, message))

    async def close(self) -> None:
        self.closed = True
        with contextlib.suppress(Exception):
            self.writer.close()
            await self.writer.wait_closed()

    # ------------------------------------------------------------------
    def flow_key(self, flow_id: int) -> str:
        """Service-pool flow identity: connection-scoped ids must not
        collide across connections sharing the pool."""
        return f"conn{self.conn_id}/flow{flow_id}"


class ScanServer:
    """Asyncio TCP server feeding flows through the scan engines.

    Parameters
    ----------
    spec:
        A picklable worker spec (:class:`~repro.service.RouterSpec` /
        :class:`~repro.service.TaggerSpec`); defaults to the XML-RPC
        content router. ``spec.build()`` provides in-process sessions,
        and the same spec is shipped to pool workers.
    workers:
        0 (default) scans in-process on the event loop; N >= 1 starts a
        sharded :class:`~repro.service.ScanService` with N processes.
    registry:
        A :class:`~repro.service.registry.Registry` (or store root
        path) enabling the admin hot-swap endpoint and the HELLO
        grammar advertisement.
    grammar:
        Initial registry ref (``"name@version"``) to serve; requires
        ``registry``. The spec's grammar field is replaced by the ref.
    quotas:
        Optional ``{ref: max_open_flows}`` per-tenant limits; a flow
        opened past its grammar's quota is refused with
        ``ERROR(OVERLOADED)``.
    mask_tables:
        Optional iterable of :class:`~repro.apps.structgen.MaskTable`
        served to OPEN_MASK flows, keyed by vocabulary hash. With a
        registry attached, tables not listed here are lazily loaded
        from the store for the served grammar (cold-start timed into
        ``structgen.coldstart_ms``); an unknown hash is refused with
        ``ERROR(UNKNOWN_VOCAB)``.
    """

    def __init__(
        self,
        spec: Any = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 0,
        idle_timeout: float = 30.0,
        max_frame: int = DEFAULT_MAX_FRAME,
        queue_depth: int = 64,
        admin_port: int | None = None,
        metrics: MetricsRegistry | None = None,
        write_high_water: int = 1 << 16,
        registry: Any = None,
        grammar: str | None = None,
        quotas: dict[str, int] | None = None,
        mask_tables: Any = None,
    ) -> None:
        if spec is None:
            from repro.service import RouterSpec

            spec = RouterSpec()
        self._registry = None
        if registry is not None:
            from repro.service.registry import Registry

            self._registry = (
                registry
                if isinstance(registry, Registry)
                else Registry(registry)
            )
        ref = getattr(spec, "registry_ref", None) or "default"
        if grammar is not None:
            if self._registry is None:
                raise ValueError(
                    "grammar= (a registry ref) requires registry="
                )
            artifact = self._registry.load(grammar)
            spec = self._spec_for_artifact(spec, artifact)
            ref = artifact.ref or grammar
        self.spec = spec
        self.host = host
        self.port = port
        self.idle_timeout = idle_timeout
        self.max_frame = max_frame
        self.queue_depth = queue_depth
        self.admin_port = admin_port
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Per-frame metrics, looked up once.
        self._rx_frames = self.metrics.counter("server.rx.frames")
        self._rx_bytes = self.metrics.counter("server.rx.bytes")
        self._tx_frames = self.metrics.counter("server.tx.frames")
        self._tx_bytes = self.metrics.counter("server.tx.bytes")
        self._flow_bytes = self.metrics.counter("server.flows.bytes")
        self._scan_seconds = self.metrics.histogram("latency.scan_s")
        self.write_high_water = write_high_water
        self.workers = workers
        self.quotas = dict(quotas) if quotas else {}
        #: vocab_hash -> MaskTable handed in explicitly (served as-is,
        #: independent of the current grammar generation).
        self._mask_tables: dict[str, Any] = {}
        if isinstance(mask_tables, dict):
            mask_tables = mask_tables.values()
        for table in mask_tables or ():
            self._mask_tables[table.vocab_hash] = table
        #: (grammar ref, vocab_hash) -> MaskTable lazily loaded from
        #: the registry (cold start paid once per pair).
        self._mask_loaded: dict[tuple[str, str], Any] = {}
        #: (ref, vocab_hash) pairs that already failed a registry
        #: lookup — refused without re-probing the store every
        #: OPEN_MASK (cleared on hot swap).
        self._mask_misses: set[tuple[str, str]] = set()
        self._gen_seq = 0
        self._generations: dict[int, _Generation] = {}
        self._started_pools = False
        self._current = self._new_generation(spec, ref)

        self._server: asyncio.base_events.Server | None = None
        self._admin_server: asyncio.base_events.Server | None = None
        self._connections: dict[int, _Connection] = {}
        self._conn_seq = 0
        #: service flow key -> (connection, flow_id): flows whose
        #: FINISH_FLOW is in the pool awaiting its final results.
        self._pending: dict[str, tuple[_Connection, int]] = {}
        self._poll_task: asyncio.Task | None = None
        self._draining = False
        self._stopped = asyncio.Event()
        #: last frame arrival: drain waits for rx quiescence, so
        #: frames already on the wire when stop() is called still
        #: reach their flows before connections close.
        self._last_rx = time.monotonic()
        #: Mask/beam ops (OPEN_MASK/ADVANCE/OPEN_BEAM/BATCH_ADVANCE)
        #: received but whose reply write has not completed — counted
        #: so a graceful drain cannot cut a reply mid-op.
        self._ops_inflight = 0

    # ------------------------------------------------------------------
    # grammar generations
    # ------------------------------------------------------------------
    @property
    def service(self):
        """The current generation's worker pool (None in-process)."""
        return self._current.service

    @property
    def _backend(self):
        """The current generation's in-process backend (None w/ pool)."""
        return self._current.backend

    def _new_generation(self, spec: Any, ref: str) -> _Generation:
        self._gen_seq += 1
        gen = _Generation(self._gen_seq, ref, spec, self.metrics)
        if self.workers:
            from repro.service import ScanService

            gen.service = ScanService(
                spec,
                n_workers=self.workers,
                queue_depth=self.queue_depth,
                backpressure="raise",
                metrics=self.metrics,
            )
            if self._started_pools:
                gen.service.start()
        else:
            gen.backend = spec.build()
        self._generations[gen.gen_id] = gen
        return gen

    def _spec_for_artifact(self, spec: Any, artifact) -> Any:
        """The spec rebased onto a registry artifact's ref (workers
        re-load the same artifact from the same store)."""
        import dataclasses

        try:
            return dataclasses.replace(
                spec,
                grammar=None,
                registry_ref=artifact.ref,
                registry_root=str(self._registry.root),
            )
        except TypeError:
            raise ValueError(
                f"spec {type(spec).__name__} does not carry registry "
                f"references; use RouterSpec or TaggerSpec"
            ) from None

    def swap_grammar(self, ref: str) -> dict:
        """Hot-swap: serve ``ref`` for new flows, drain old ones.

        Loads the artifact from the registry (warming this process's
        caches), installs a fresh generation — with its own worker
        pool when ``workers > 0`` — and points new OPEN_FLOWs at it.
        Flows already open keep their original generation until they
        finish; a fully drained generation is then retired. Returns a
        summary dict (also the admin endpoint's response body).
        """
        if self._registry is None:
            raise ValueError(
                "hot swap needs a grammar registry (registry=...)"
            )
        artifact = self._registry.load(ref)
        pinned = artifact.ref or ref
        spec = self._spec_for_artifact(self.spec, artifact)
        previous = self._current
        # Reuse a still-live generation already serving this exact ref
        # (swap back to the old version mid-drain without doubling
        # pools).
        for gen in self._generations.values():
            if gen.ref == pinned:
                self._current = gen
                break
        else:
            self._current = self._new_generation(spec, pinned)
        self.metrics.counter("server.swaps").inc()
        self._mask_misses.clear()  # masks may exist for the new ref
        self._retire_idle()
        return {
            "grammar": pinned,
            "generation": self._current.gen_id,
            "previous": previous.ref,
            "draining": sum(
                1
                for conn in self._connections.values()
                for flow in conn.flows.values()
                if flow.gen is not self._current
            ),
        }

    def _retire_idle(self) -> None:
        """Drop generations no open flow references anymore."""
        if len(self._generations) == 1:
            return
        live = {self._current.gen_id}
        for conn in self._connections.values():
            for flow in conn.flows.values():
                live.add(flow.gen.gen_id)
        for gen_id in [g for g in self._generations if g not in live]:
            gen = self._generations.pop(gen_id)
            if gen.service is not None:
                gen.service.close(drain=False)
            gen.backend = None
            self.metrics.counter("server.swaps.retired").inc()

    def _tenant_open(self, ref: str) -> int:
        return sum(
            1
            for conn in self._connections.values()
            for flow in conn.flows.values()
            if flow.gen.ref == ref
        )

    def grammar_refs(self) -> tuple[str, ...]:
        """Refs advertised in the server HELLO: the currently served
        grammar first, then everything loadable from the registry."""
        refs = []
        if self._current.ref != "default":
            refs.append(self._current.ref)
        if self._registry is not None:
            for ref in self._registry.refs():
                if ref not in refs:
                    refs.append(ref)
        return tuple(refs[:32])

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ScanServer":
        """Bind the data (and optional admin) listeners and, with a
        pool, spawn the workers and the result poll task."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        if self.workers:
            self._started_pools = True
            for gen in self._generations.values():
                if gen.service is not None:
                    gen.service.start()
            self._poll_task = asyncio.ensure_future(self._poll_service())
        if self.admin_port is not None:
            self._admin_server = await asyncio.start_server(
                self._handle_admin, self.host, self.admin_port
            )
        return self

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolves port 0 to the real one."""
        sockets = self._server.sockets if self._server else ()
        if not sockets:
            raise RuntimeError("server not started")
        return sockets[0].getsockname()[:2]

    @property
    def admin_address(self) -> tuple[str, int]:
        sockets = (
            self._admin_server.sockets if self._admin_server else ()
        )
        if not sockets:
            raise RuntimeError("admin listener not started")
        return sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` is called (from a signal handler,
        another task, or a test)."""
        await self._stopped.wait()

    async def __aenter__(self) -> "ScanServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.stop(drain=exc_type is None)
        return False

    def _work_in_flight(self) -> bool:
        """Open scan flows (still streaming), pool flows awaiting
        their final RESULT, or mask/beam ops whose reply is not yet
        fully written. Idle mask/beam flows are request-response and
        have no tail to flush, so they never hold the drain open —
        but an ADVANCE/BATCH_ADVANCE already received gets its one
        reply out before GOODBYE (``_ops_inflight``)."""
        return (
            bool(self._pending)
            or self._ops_inflight > 0
            or any(
                flow.mask is None and flow.beam is None
                for conn in self._connections.values()
                for flow in conn.flows.values()
            )
        )

    async def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Graceful shutdown: stop accepting, let in-flight flows
        complete (their final RESULT frames are delivered), close
        connections.

        With ``drain=False`` (or on drain timeout) connections are cut
        without flushing.
        """
        if self._stopped.is_set():
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        if self._admin_server is not None:
            self._admin_server.close()
        if drain:
            # Quiescence, not just emptiness: frames already in flight
            # (written but not yet read off the socket) would make an
            # instant "no open flows" check a lie.
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                await asyncio.sleep(0.005)
                if self._work_in_flight():
                    continue
                if time.monotonic() - self._last_rx >= 0.05:
                    break
        if self._poll_task is not None:
            self._poll_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._poll_task
        for conn in list(self._connections.values()):
            if drain:
                for flow in list(conn.flows.values()):
                    if not flow.finishing:
                        await conn.send_error(
                            flow.flow_id,
                            ErrorCode.DRAINING,
                            "server draining; flow discarded",
                        )
                await conn.send(protocol.encode_goodbye())
            await conn.close()
        for gen in self._generations.values():
            if gen.service is not None:
                gen.service.close(drain=drain)
        if self._server is not None:
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        self._stopped.set()

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-safe snapshot of the shared metrics registry plus
        live connection/flow gauges."""
        self.metrics.gauge("server.connections.open").set(
            len(self._connections)
        )
        self.metrics.gauge("server.flows.open").set(
            sum(len(c.flows) for c in self._connections.values())
        )
        self.metrics.gauge("server.flows.pending_results").set(
            len(self._pending)
        )
        generations = [
            {
                "generation": gen.gen_id,
                "grammar": gen.ref,
                "current": gen is self._current,
                "open_flows": self._tenant_open(gen.ref),
            }
            for gen in self._generations.values()
        ]
        tables = list(self._mask_tables.values()) + list(
            self._mask_loaded.values()
        )
        # The "memo" is the tables' state-complete row matrix: rows
        # served already complete vs. completed on demand.
        memo = {
            "hits": sum(t.memo_hits for t in tables),
            "misses": sum(t.memo_misses for t in tables),
        }
        self.metrics.counter("structgen.memo_hits").value = memo["hits"]
        self.metrics.counter("structgen.memo_misses").value = memo[
            "misses"
        ]
        structgen = {
            "tables": [t.describe() for t in tables],
            "memo": memo,
            "sessions_open": sum(
                1
                for conn in self._connections.values()
                for flow in conn.flows.values()
                if flow.mask is not None
            ),
            "beams_open": sum(
                1
                for conn in self._connections.values()
                for flow in conn.flows.values()
                if flow.beam is not None
            ),
        }
        if self.service is not None:
            snapshot = self.service.stats()
            snapshot["generations"] = generations
            snapshot["structgen"] = structgen
            return snapshot
        # In-process mode: report every engine's capability flags
        # (pool mode reports them through the service's stats), plus
        # the wide-loop skip-efficiency counters when live.
        from repro.core.capabilities import engine_capabilities

        engine = engine_capabilities(
            getattr(self.spec, "engine", "compiled")
        )
        tagger = self._vector_tagger()
        if tagger is not None:
            engine["vector_active"] = tagger.vector_active
            engine["native_active"] = getattr(
                tagger, "native_active", False
            )
            scanned = tagger.bytes_scanned
            skipped = tagger.bytes_skipped
            self.metrics.counter("vector.bytes_scanned").value = scanned
            self.metrics.counter("vector.bytes_skipped").value = skipped
            if scanned:
                self.metrics.gauge("vector.skip_ratio").set(
                    skipped / scanned
                )
        snapshot = self.metrics.snapshot()
        snapshot["engine"] = engine
        snapshot["generations"] = generations
        snapshot["structgen"] = structgen
        return snapshot

    def _vector_tagger(self):
        """The in-process backend's vector tagger, if that is what the
        spec built (None on the compiled/interpreted paths)."""
        from repro.core.vectorscan import VectorTagger

        backend = self._backend
        tagger = getattr(backend, "tagger", None)
        if tagger is None:
            router = getattr(backend, "router", None)
            tagger = getattr(
                getattr(router, "tagger", None), "compiled", None
            )
        return tagger if isinstance(tagger, VectorTagger) else None

    # ------------------------------------------------------------------
    # data-plane connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        self._conn_seq += 1
        conn = _Connection(self, reader, writer, self._conn_seq)
        writer.transport.set_write_buffer_limits(
            high=self.write_high_water
        )
        self._connections[conn.conn_id] = conn
        self.metrics.counter("server.connections.opened").inc()
        try:
            await self._frame_loop(conn)
        except (ConnectionError, OSError):
            pass
        except ProtocolError as exc:
            await conn.send_error(CONNECTION_FLOW, exc.code, str(exc))
            self.metrics.counter("server.errors.protocol").inc()
        finally:
            await self._teardown(conn)

    async def _hello(self, conn: _Connection, frame: Frame) -> bool:
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
                f"server speaks v{PROTOCOL_VERSION}, client sent "
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

    async def _read_frames(self, conn: _Connection) -> list[Frame] | None:
        """Every frame the next socket read completes, or None on EOF;
        idle connections are reaped (the timer runs per read, so a
        frame dribbled in slower than the limit counts as idle)."""
        taken = conn.decoder.taken
        try:
            frames = await asyncio.wait_for(
                protocol.read_frames(conn.reader, conn.decoder),
                timeout=self.idle_timeout,
            )
        except asyncio.TimeoutError:
            self.metrics.counter("server.timeouts.idle").inc()
            await conn.send_error(
                CONNECTION_FLOW,
                ErrorCode.IDLE_TIMEOUT,
                f"no frame for {self.idle_timeout:g}s",
            )
            return None
        if frames is not None:
            self._last_rx = time.monotonic()
            self._rx_frames.inc(len(frames))
            self._rx_bytes.inc(conn.decoder.taken - taken)
        return frames

    async def _frame_loop(self, conn: _Connection) -> None:
        """Read, handle every frame the read completed, write once."""
        handlers = {
            FrameType.DATA: self._data,
            FrameType.OPEN_FLOW: self._open_flow,
            FrameType.FINISH_FLOW: self._finish_flow,
            FrameType.OPEN_MASK: self._open_mask,
            FrameType.ADVANCE: self._advance,
            FrameType.OPEN_BEAM: self._open_beam,
            FrameType.BATCH_ADVANCE: self._batch_advance,
        }
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
                handler = handlers.get(frame.type)
                if handler is None:
                    raise ProtocolError(
                        f"unexpected {frame.name} frame from client"
                    )
                await handler(conn, frame)
            await conn.flush()

    # ------------------------------------------------------------------
    async def _open_flow(self, conn: _Connection, frame: Frame) -> None:
        flow_id = protocol.decode_open_flow(frame)
        if self._draining:
            await conn.send_error(
                flow_id, ErrorCode.DRAINING, "server draining"
            )
            return
        if flow_id in conn.flows or flow_id == CONNECTION_FLOW:
            await conn.send_error(
                flow_id, ErrorCode.DUPLICATE_FLOW,
                f"flow {flow_id} already open",
            )
            return
        gen = self._current
        quota = self.quotas.get(gen.ref)
        if quota is not None and self._tenant_open(gen.ref) >= quota:
            gen.flows_refused.inc()
            await conn.send_error(
                flow_id, ErrorCode.OVERLOADED,
                f"grammar {gen.ref} at its quota of {quota} open flows",
            )
            return
        session = (
            gen.backend.new_session()
            if gen.backend is not None
            else None
        )
        conn.flows[flow_id] = _Flow(
            flow_id, conn.flow_key(flow_id), session, gen
        )
        self.metrics.counter("server.flows.opened").inc()
        gen.flows_opened.inc()

    async def _data(self, conn: _Connection, frame: Frame) -> None:
        flow_id, chunk = protocol.decode_data(frame)
        flow = conn.flows.get(flow_id)
        if flow is None or flow.finishing:
            await conn.send_error(
                flow_id, ErrorCode.UNKNOWN_FLOW,
                f"DATA for unopened flow {flow_id}",
            )
            return
        if flow.mask is not None or flow.beam is not None:
            del conn.flows[flow_id]
            await conn.send_error(
                flow_id, ErrorCode.BAD_FRAME,
                f"DATA on mask flow {flow_id} "
                "(use ADVANCE/BATCH_ADVANCE)",
            )
            return
        # While draining, flows opened before the drain began may
        # still stream to completion; only OPEN_FLOW is refused.
        self._flow_bytes.inc(len(chunk))
        flow.gen.bytes.inc(len(chunk))
        if flow.gen.service is not None:
            await self._paced(flow.gen.service.submit, flow.key, chunk)
            return
        started = time.perf_counter()
        try:
            results = flow.session.feed_records(chunk)
        except Exception as exc:  # scan fault: report, drop the flow
            self.metrics.counter("server.errors.scan").inc()
            del conn.flows[flow_id]
            await conn.send_error(flow_id, ErrorCode.INTERNAL, str(exc))
            return
        self._scan_seconds.observe(time.perf_counter() - started)
        if results:
            conn.add_results(flow_id, results)

    async def _finish_flow(self, conn: _Connection, frame: Frame) -> None:
        flow_id = protocol.decode_finish_flow(frame)
        flow = conn.flows.get(flow_id)
        if flow is None or flow.finishing:
            await conn.send_error(
                flow_id, ErrorCode.UNKNOWN_FLOW,
                f"FINISH_FLOW for unopened flow {flow_id}",
            )
            return
        if flow.mask is not None or flow.beam is not None:
            # Mask and beam flows have no tail: acknowledge with an
            # empty final RESULT (same close discipline as scan flows).
            del conn.flows[flow_id]
            self.metrics.counter(
                "structgen.beams_closed"
                if flow.beam is not None
                else "structgen.sessions_closed"
            ).inc()
            self.metrics.histogram("latency.flow_s").observe(
                time.monotonic() - flow.opened_at
            )
            self._retire_idle()
            conn.queue_result(flow_id, True, [])
            await conn.flush()
            return
        if flow.gen.service is not None:
            flow.finishing = True
            self._pending[flow.key] = (conn, flow_id)
            await self._paced(flow.gen.service.finish_flow, flow.key)
            return
        try:
            tail = flow.session.finish_records()
        except Exception as exc:
            self.metrics.counter("server.errors.scan").inc()
            del conn.flows[flow_id]
            await conn.send_error(flow_id, ErrorCode.INTERNAL, str(exc))
            return
        self._observe_flow_done(flow)
        del conn.flows[flow_id]
        self._retire_idle()
        # One final RESULT (what this read's DATA frames produced for
        # the flow rides along), written now, not at the read's end.
        conn.queue_result(flow_id, True, tail)
        await conn.flush()

    def _observe_flow_done(self, flow: _Flow) -> None:
        self.metrics.counter("server.flows.finished").inc()
        flow.gen.flows_finished.inc()
        self.metrics.histogram("latency.flow_s").observe(
            time.monotonic() - flow.opened_at
        )

    # ------------------------------------------------------------------
    # constrained-decoding (mask) flows
    # ------------------------------------------------------------------
    def _find_mask_table(self, vocab_hash: str):
        """The mask table for a vocabulary hash: explicit tables
        first, then a lazy registry load against the served grammar
        (cold start observed in ``structgen.coldstart_ms``)."""
        table = self._mask_tables.get(vocab_hash)
        if table is not None:
            return table
        ref = self._current.ref
        if self._registry is None or ref == "default":
            return None
        cache_key = (ref, vocab_hash)
        table = self._mask_loaded.get(cache_key)
        if table is not None:
            return table
        if cache_key in self._mask_misses:
            return None
        started = time.perf_counter()
        try:
            table = self._registry.load_masks(ref, vocab_hash)
        except Exception:
            self._mask_misses.add(cache_key)
            return None
        self.metrics.histogram(
            "structgen.coldstart_ms", bounds=MASK_COLDSTART_BOUNDS_MS
        ).observe((time.perf_counter() - started) * 1e3)
        self._mask_loaded[cache_key] = table
        return table

    async def _open_mask(self, conn: _Connection, frame: Frame) -> None:
        flow_id, vocab_hash = protocol.decode_open_mask(frame)
        if self._draining:
            await conn.send_error(
                flow_id, ErrorCode.DRAINING, "server draining"
            )
            return
        if flow_id in conn.flows or flow_id == CONNECTION_FLOW:
            await conn.send_error(
                flow_id, ErrorCode.DUPLICATE_FLOW,
                f"flow {flow_id} already open",
            )
            return
        table = self._find_mask_table(vocab_hash)
        if table is None:
            await conn.send_error(
                flow_id, ErrorCode.UNKNOWN_VOCAB,
                f"no mask tables for vocabulary {vocab_hash[:16]} "
                f"(grammar {self._current.ref}); run "
                "`repro structgen precompute`",
            )
            return
        from repro.apps.structgen.masks import MaskSession

        flow = _Flow(flow_id, conn.flow_key(flow_id), None, self._current)
        flow.mask = MaskSession(table, metrics=self.metrics)
        conn.flows[flow_id] = flow
        self.metrics.counter("structgen.sessions_opened").inc()
        self._ops_inflight += 1
        try:
            await conn.send(
                protocol.encode_mask(
                    flow_id, flow.mask.state, flow.mask.mask()
                )
            )
        finally:
            self._ops_inflight -= 1

    async def _advance(self, conn: _Connection, frame: Frame) -> None:
        flow_id, token_id = protocol.decode_advance(frame)
        flow = conn.flows.get(flow_id)
        if flow is None or flow.mask is None:
            await conn.send_error(
                flow_id, ErrorCode.UNKNOWN_FLOW,
                f"ADVANCE for unopened mask flow {flow_id}",
            )
            return
        from repro.apps.structgen.masks import MaskError

        started = time.perf_counter()
        self._ops_inflight += 1
        try:
            try:
                state = flow.mask.advance(token_id)
                row = flow.mask.mask()
            except MaskError as exc:
                del conn.flows[flow_id]
                await conn.send_error(
                    flow_id, ErrorCode.BAD_TOKEN, str(exc)
                )
                return
            except Exception as exc:
                self.metrics.counter("server.errors.scan").inc()
                del conn.flows[flow_id]
                await conn.send_error(
                    flow_id, ErrorCode.INTERNAL, str(exc)
                )
                return
            self.metrics.histogram("latency.mask_s").observe(
                time.perf_counter() - started
            )
            await conn.send(protocol.encode_mask(flow_id, state, row))
        finally:
            self._ops_inflight -= 1

    # ------------------------------------------------------------------
    # beam flows (batched constrained decoding)
    # ------------------------------------------------------------------
    def _encode_beam_masks(self, flow: _Flow) -> bytes:
        """One MASKS frame for the beam's current masks, each lane
        delta-encoded against the row last sent for that lane index
        (full on new lanes or when the patch would not be smaller —
        the resync escape)."""
        from repro.apps.structgen.beam import encode_lane_records

        beam = flow.beam
        rb = beam.table.row_bytes
        packed = beam.masks_packed()
        states = beam.states
        records, delta_lanes = encode_lane_records(
            states, packed, flow.beam_rows, rb
        )
        flow.beam_rows = packed
        self.metrics.counter("structgen.beam_lanes_full").inc(
            len(states) - delta_lanes
        )
        self.metrics.counter("structgen.beam_lanes_delta").inc(
            delta_lanes
        )
        return protocol.encode_masks_records(
            flow.flow_id, len(states), rb, records
        )

    async def _open_beam(self, conn: _Connection, frame: Frame) -> None:
        flow_id, width, vocab_hash = protocol.decode_open_beam(frame)
        if self._draining:
            await conn.send_error(
                flow_id, ErrorCode.DRAINING, "server draining"
            )
            return
        if flow_id in conn.flows or flow_id == CONNECTION_FLOW:
            await conn.send_error(
                flow_id, ErrorCode.DUPLICATE_FLOW,
                f"flow {flow_id} already open",
            )
            return
        table = self._find_mask_table(vocab_hash)
        if table is None:
            await conn.send_error(
                flow_id, ErrorCode.UNKNOWN_VOCAB,
                f"no mask tables for vocabulary {vocab_hash[:16]} "
                f"(grammar {self._current.ref}); run "
                "`repro structgen precompute`",
            )
            return
        if table.row_bytes > protocol.MAX_MASKS_ROW_BYTES:
            # MASKS carries row_bytes and delta byte offsets as u16.
            await conn.send_error(
                flow_id, ErrorCode.UNKNOWN_VOCAB,
                f"vocabulary {vocab_hash[:16]} has "
                f"{len(table.vocab)} tokens ({table.row_bytes}-byte "
                "rows); beam flows carry at most "
                f"{protocol.MAX_MASKS_ROW_BYTES}-byte rows",
            )
            return
        from repro.apps.structgen.beam import BeamMaskSession

        flow = _Flow(flow_id, conn.flow_key(flow_id), None, self._current)
        flow.beam = BeamMaskSession(table, width, metrics=self.metrics)
        conn.flows[flow_id] = flow
        self.metrics.counter("structgen.beams_opened").inc()
        self._ops_inflight += 1
        try:
            await conn.send(self._encode_beam_masks(flow))
        finally:
            self._ops_inflight -= 1

    async def _batch_advance(
        self, conn: _Connection, frame: Frame
    ) -> None:
        flow_id, op, arg = protocol.decode_batch_advance(frame)
        flow = conn.flows.get(flow_id)
        if flow is None or flow.beam is None:
            await conn.send_error(
                flow_id, ErrorCode.UNKNOWN_FLOW,
                f"BATCH_ADVANCE for unopened beam flow {flow_id}",
            )
            return
        from repro.apps.structgen.masks import MaskError
        from repro.server.protocol import BeamOp

        started = time.perf_counter()
        self._ops_inflight += 1
        try:
            try:
                if op == BeamOp.ADVANCE:
                    flow.beam.advance(arg)
                elif op == BeamOp.FORK:
                    flow.beam.fork(arg)
                else:
                    flow.beam.rollback(arg)
            except MaskError as exc:
                # The beam is atomic: the failed op moved nothing, so
                # the flow stays open on its previous states. Report
                # and let the client pick another token.
                await conn.send_error(
                    flow_id, ErrorCode.BAD_TOKEN, str(exc)
                )
                return
            except Exception as exc:
                self.metrics.counter("server.errors.scan").inc()
                del conn.flows[flow_id]
                await conn.send_error(
                    flow_id, ErrorCode.INTERNAL, str(exc)
                )
                return
            reply = self._encode_beam_masks(flow)
            self.metrics.histogram("latency.mask_s").observe(
                time.perf_counter() - started
            )
            await conn.send(reply)
        finally:
            self._ops_inflight -= 1

    async def _client_goodbye(self, conn: _Connection) -> None:
        """Client is done sending: flush its pending pool flows, then
        answer GOODBYE and close."""
        deadline = time.monotonic() + self.idle_timeout
        while (
            any(c is conn for c, _f in self._pending.values())
            and time.monotonic() < deadline
        ):
            await asyncio.sleep(0.002)
        await conn.send(protocol.encode_goodbye())
        await conn.close()

    async def _teardown(self, conn: _Connection) -> None:
        self._connections.pop(conn.conn_id, None)
        self.metrics.counter("server.connections.closed").inc()
        # Forget pool flows this connection can no longer receive.
        for key in [
            k for k, (c, _f) in self._pending.items() if c is conn
        ]:
            del self._pending[key]
        conn.flows.clear()
        self._retire_idle()
        await conn.close()

    # ------------------------------------------------------------------
    # service-pool plumbing
    # ------------------------------------------------------------------
    async def _paced(self, submit, *args) -> None:
        """Run one pool submission (``submit``/``finish_flow``); a full
        shard queue pauses this connection's read loop (we simply stop
        reading) until there is room — QueueFull is propagated as
        *pacing*, not buffering."""
        while True:
            try:
                submit(*args)
                return
            except QueueFull:
                self.metrics.counter("server.backpressure.waits").inc()
                await asyncio.sleep(0.002)

    async def _poll_service(self) -> None:
        """Deliver final RESULT frames as the pools acknowledge
        FINISH_FLOWs (each pool merges per-flow results in order).
        Every live generation's pool is polled: after a hot swap,
        draining generations still owe finals to their flows."""
        while True:
            delivered = False
            for gen in list(self._generations.values()):
                if gen.service is None:
                    continue
                for key in gen.service.poll():
                    items = gen.service.pop_flow(key)
                    target = self._pending.pop(key, None)
                    if target is None:  # connection went away
                        continue
                    conn, flow_id = target
                    flow = conn.flows.pop(flow_id, None)
                    if flow is not None:
                        self._observe_flow_done(flow)
                    delivered = True
                    conn.queue_result(flow_id, True, items)
                    await conn.flush()
            if delivered:
                self._retire_idle()
            await asyncio.sleep(0.001 if self._pending else 0.02)

    # ------------------------------------------------------------------
    # admin endpoint: minimal HTTP/1.0, plaintext
    # ------------------------------------------------------------------
    def _admin_swap(self, method: str, query: str) -> tuple[str, str]:
        """``POST /swap?grammar=name@version`` — hot-swap the served
        grammar. Wrong method is 405, missing param 400, a registry or
        load failure 409 (the server keeps serving what it was)."""
        if method != "POST":
            return "405 Method Not Allowed", "swap requires POST\n"
        refs = urllib.parse.parse_qs(query).get("grammar")
        if not refs or not refs[0]:
            return (
                "400 Bad Request",
                "missing query parameter: grammar=name@version\n",
            )
        try:
            info = self.swap_grammar(refs[0])
        except Exception as exc:
            return "409 Conflict", f"swap failed: {exc}\n"
        return "200 OK", json.dumps(info, sort_keys=True) + "\n"

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
            if path == "/metrics":
                self.stats()  # refresh gauges
                status, body = "200 OK", self.metrics.render_prometheus()
            elif path == "/healthz":
                status, body = "200 OK", "ok\n"
            elif path == "/stats":
                status, body = "200 OK", json.dumps(
                    self.stats(), indent=2, sort_keys=True
                ) + "\n"
            elif path == "/swap":
                status, body = self._admin_swap(method, query)
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
