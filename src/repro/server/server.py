"""The asyncio serving edge: framed TCP front-end for the scan engines.

This is the reproduction's answer to the paper's deployment picture
(Figs. 1, 12-14): the tagger as a *network device*. A
:class:`ScanServer` listens on TCP, speaks the
:mod:`repro.server.protocol` framing, and feeds each connection's
multiplexed flows through per-flow streaming sessions: the connection's
frame handler drives a :class:`~repro.core.api.StreamSession`
in-process, on the event loop. N cores are N such servers behind
``repro cluster`` (:mod:`repro.server.cluster`).

Robustness model
----------------
The listeners, the handshake, the idle timeout, the graceful drain and
the admin responder are :class:`~repro.server.endpoint.FramedEndpoint`'s
(shared with the cluster proxy); which frame a flow accepts in which
state, which ERROR answers one it does not, and which errors close a
flow is :mod:`repro.server.flows`' lifecycle table (DESIGN.md §8).
What this module adds:

* **Frame-size limit** — a declared frame length above ``max_frame``
  is rejected before the body is read (``ERROR(FRAME_TOO_LARGE)``,
  close), so a hostile length prefix cannot balloon memory.
* **Backpressure** — a connection's frames are handled inside its
  read callback; what one read's frames produced (the results of
  consecutive DATA frames of a flow in one RESULT) is written once, at
  the end of the read. Once the transport holds ``write_high_water``
  unsent bytes it pauses our writing, and the connection stops
  *reading* until it resumes: a consumer that stops reading stops the
  server reading its requests, and the stall propagates to the
  producer as TCP flow control. The server never buffers results for
  a slow client beyond one transport buffer plus one read's worth.
* **Graceful drain** — :meth:`ScanServer.stop` (and SIGTERM in the
  CLI) lets every already-open scan flow stream to completion (its
  DATA and FINISH_FLOW are still honored and its final RESULT
  delivered) and every beam op already received get its reply out, up
  to the drain timeout; flows that never finished are discarded.
* **Hot swap** — with a grammar registry attached, ``POST
  /swap?grammar=name@version`` on the admin listener loads the new
  artifact and installs it as a fresh *generation*: new flows bind to
  it immediately, while flows already open keep streaming on the
  generation (plan, tables) they started on — the same drain
  discipline as :meth:`ScanServer.stop`, applied per grammar version.
  A generation with no remaining flows is retired. Per-tenant traffic
  is accounted under ``tenant.<ref>.*`` counters, and optional per-ref
  quotas bound the open flows — of any kind — a grammar version may
  hold (``ERROR(OVERLOADED)``).
* **Beam flows** — constrained-decoding sessions
  (:mod:`repro.apps.structgen`; a single decode is a beam of width 1)
  ride the same framed connections: OPEN_BEAM binds a flow to a
  precomputed mask table (explicit ``mask_tables=`` or lazily loaded
  from the registry for the served grammar, cold-start timed), each
  BATCH_ADVANCE is answered with the MASKS for the resulting states,
  and no MASKS frame outgrows the peer's ``max_frame``.

Observability: counters/gauges/histograms land in one
:class:`~repro.service.metrics.MetricsRegistry`, exposed as JSON via
:meth:`ScanServer.stats` and as Prometheus plaintext on the admin
listener (``GET /metrics``, plus ``/healthz`` and ``/stats``).
"""

from __future__ import annotations

import json
import sys
import time
import urllib.parse
from typing import Any

from repro.server import protocol
from repro.server.endpoint import Connection, FramedEndpoint
from repro.server.flows import BEAM, KINDS, SCAN, Flow, Refused
from repro.server.protocol import (
    DEFAULT_MAX_FRAME,
    MAX_BEAM_WIDTH,
    BeamOp,
    ErrorCode,
    Frame,
    FrameType,
    ProtocolError,
)
from repro.service.metrics import MetricsRegistry

__all__ = ["ScanServer"]

#: Mask-table cold-start histogram bounds (milliseconds): registry
#: loads are tens of ms, in-process rebuilds hundreds to thousands.
MASK_COLDSTART_BOUNDS_MS = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
    200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0,
)


class _ServerFlow(Flow):
    """Per-flow server state: the session driving it, the grammar
    generation it is pinned to, plus timing for latency stats."""

    __slots__ = ("session", "gen", "opened_at")

    def __init__(self, flow_id: int, session, gen) -> None:
        super().__init__(flow_id)
        self.session = session
        self.gen = gen
        self.opened_at = time.monotonic()


class _ScanFlow(_ServerFlow):
    """``session`` is the flow's scan session."""

    __slots__ = ()
    kind = SCAN


class _BeamFlow(_ServerFlow):
    """``session`` is the flow's BeamMaskSession."""

    __slots__ = ("rows",)
    kind = BEAM

    def __init__(self, flow_id: int, session, gen) -> None:
        super().__init__(flow_id, session, gen)
        #: The rows most recently sent in a MASKS frame, lane-major in
        #: one buffer — the base the next frame's deltas patch against.
        self.rows = b""


class _Generation:
    """One served grammar version: its spec and what ``spec.build()``
    made of it (a router or a tagger; ``stream()`` opens a flow).
    Flows are pinned to the generation they opened under, which is
    what lets a hot swap leave in-flight flows scanning on the plan
    they started with."""

    __slots__ = (
        "gen_id", "ref", "spec", "backend",
        "bytes", "flows_opened", "flows_finished", "flows_refused",
    )

    def __init__(self, gen_id: int, ref: str, spec, metrics) -> None:
        self.gen_id = gen_id
        #: Registry ref served by this generation (``"name@version"``),
        #: or the synthetic ``"default"`` for a spec-only server.
        self.ref = ref
        self.spec = spec
        self.backend = spec.build()
        # The tenant's counters, looked up once rather than per frame.
        self.bytes = metrics.counter(f"tenant.{ref}.bytes")
        self.flows_opened = metrics.counter(f"tenant.{ref}.flows_opened")
        self.flows_finished = metrics.counter(
            f"tenant.{ref}.flows_finished"
        )
        self.flows_refused = metrics.counter(f"tenant.{ref}.flows_refused")


class _Connection(Connection):
    """A server connection holds a flow's scan results in the held slot
    so that they leave merged: one RESULT per flow per read."""

    def queue_result(self, flow_id: int, final: bool, results: list):
        """Queue ``results`` (behind what is held for the same flow, in
        the same RESULT) as frames within the peer's limit."""
        held = self.take_held(flow_id)
        self.queue(*self._encode_held(flow_id, held + results, final))

    def _encode_held(self, flow_id: int, results: list, final=False):
        try:
            return protocol.encode_result_frames(
                flow_id, final, results, self.peer_max_frame
            )
        except ProtocolError as exc:
            # A record the peer's own frame limit has no room for.
            self.endpoint._errors_sent.inc()
            return [protocol.encode_error(flow_id, exc.code, str(exc))]


class ScanServer(FramedEndpoint):
    """Asyncio TCP server feeding flows through the scan engines.

    Parameters
    ----------
    spec:
        A :class:`~repro.service.RouterSpec` /
        :class:`~repro.service.TaggerSpec`; defaults to the XML-RPC
        content router. ``spec.build().stream()`` opens each flow.
    registry:
        A :class:`~repro.service.registry.Registry` (or store root
        path) enabling the admin hot-swap endpoint and the HELLO
        grammar advertisement.
    grammar:
        Initial registry ref (``"name@version"``) to serve; requires
        ``registry``. The spec's grammar field is replaced by the ref.
    quotas:
        Optional ``{ref: max_open_flows}`` per-tenant limits; a flow
        of any kind opened past its grammar's quota is refused with
        ``ERROR(OVERLOADED)``.
    mask_tables:
        Optional iterable of :class:`~repro.apps.structgen.MaskTable`
        served to beam flows, keyed by vocabulary hash. With a
        registry attached, tables not listed here are lazily loaded
        from the store for the served grammar (cold-start timed into
        ``structgen.coldstart_ms``); an unknown hash is refused with
        ``ERROR(UNKNOWN_VOCAB)``.
    """

    role = "server"
    connection_class = _Connection

    def __init__(
        self,
        spec: Any = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        idle_timeout: float = 30.0,
        max_frame: int = DEFAULT_MAX_FRAME,
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
        super().__init__(
            host,
            port,
            admin_port=admin_port,
            idle_timeout=idle_timeout,
            max_frame=max_frame,
            metrics=metrics,
            write_high_water=write_high_water,
        )
        self._admin_routes = {
            "/metrics": self._admin_metrics,
            "/healthz": self._admin_healthz,
            "/stats": self._admin_stats,
            "/swap": self._admin_swap,
        }
        self.spec = spec
        self._flow_bytes = self.metrics.counter("server.flows.bytes")
        self._scan_seconds = self.metrics.histogram("latency.scan_s")
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
        #: OPEN_BEAM (cleared on hot swap).
        self._mask_misses: set[tuple[str, str]] = set()
        self._gen_seq = 0
        self._generations: dict[int, _Generation] = {}
        self._current = self._new_generation(spec, ref)

    # ------------------------------------------------------------------
    # grammar generations
    # ------------------------------------------------------------------
    def _new_generation(self, spec: Any, ref: str) -> _Generation:
        self._gen_seq += 1
        gen = _Generation(self._gen_seq, ref, spec, self.metrics)
        self._generations[gen.gen_id] = gen
        return gen

    def _spec_for_artifact(self, spec: Any, artifact) -> Any:
        """The spec rebased onto a registry artifact's ref (the build
        reuses the artifact: Registry instances share their loads)."""
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
        caches), installs a fresh generation and points new OPEN_FLOWs
        at it.
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
        # (swap back to the old version mid-drain without building it
        # twice).
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
            del self._generations[gen_id]
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
    def _work_in_flight(self) -> bool:
        """Open scan flows (still streaming). Beam flows are
        request-response: a BATCH_ADVANCE is answered in the read that
        brought it, its reply queued ahead of the GOODBYE, so an idle
        beam never holds the drain open."""
        return super()._work_in_flight() or any(
            flow.kind is SCAN
            for conn in self._connections.values()
            for flow in conn.flows.values()
        )

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-safe snapshot of the shared metrics registry plus
        live connection/flow gauges."""
        by_ref: dict[str, int] = {}
        by_kind = dict.fromkeys(KINDS, 0)
        for conn in self._connections.values():
            for flow in conn.flows.values():
                by_ref[flow.gen.ref] = by_ref.get(flow.gen.ref, 0) + 1
                by_kind[flow.kind] += 1
        self.metrics.gauge("server.connections.open").set(
            len(self._connections)
        )
        self.metrics.gauge("server.flows.open").set(sum(by_kind.values()))
        generations = [
            {
                "generation": gen.gen_id,
                "grammar": gen.ref,
                "current": gen is self._current,
                "open_flows": by_ref.get(gen.ref, 0),
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
        # Whether beams run on the C kernel: the native module as loaded
        # or prebuilt (never built by a scrape), so true before any beam
        # opens.  Looked up, not imported — a scan server need not load
        # the decoding subsystem to say it serves no beams.
        beam = sys.modules.get("repro.apps.structgen.beam")
        beam_native = beam is not None and beam.beam_capability()["native"]
        structgen = {
            "tables": [t.describe() for t in tables],
            "memo": memo,
            "beams_open": by_kind[BEAM],
            "beam_native": beam_native,
        }
        # Every engine's capability flags under the engine the served
        # tagger runs, plus its skip-efficiency counters (scan.*) when
        # it counts them.
        from repro.core.capabilities import engine_capabilities

        tagger = self._scan_tagger()
        engine = engine_capabilities(tagger.engine)
        scan = tagger.compiled
        if hasattr(scan, "bytes_scanned"):
            engine["native_active"] = getattr(scan, "native_active", False)
            scanned = scan.bytes_scanned
            skipped = scan.bytes_skipped
            self.metrics.counter("scan.bytes_scanned").value = scanned
            self.metrics.counter("scan.bytes_skipped").value = skipped
            if scanned:
                self.metrics.gauge("scan.skip_ratio").set(
                    skipped / scanned
                )
        snapshot = self.metrics.snapshot()
        snapshot["engine"] = engine
        snapshot["generations"] = generations
        snapshot["structgen"] = structgen
        return snapshot

    def _scan_tagger(self):
        """The current generation's BehavioralTagger (a router's, or
        the one a TaggerSpec built)."""
        built = self._current.backend
        return getattr(built, "tagger", built)

    # ------------------------------------------------------------------
    # data plane: what happens once the flow table accepted a frame
    # ------------------------------------------------------------------
    def _at_quota(self) -> str | None:
        gen = self._current
        quota = self.quotas.get(gen.ref)
        if quota is not None and self._tenant_open(gen.ref) >= quota:
            return f"grammar {gen.ref} at its quota of {quota} open flows"
        return None

    def _refuse(self, conn: Connection, refusal: Refused) -> None:
        if refusal.code == ErrorCode.OVERLOADED:
            self._current.flows_refused.inc()
        super()._refuse(conn, refusal)

    def _teardown(self, conn: Connection) -> None:
        super()._teardown(conn)
        self._retire_idle()

    def _open(self, conn, kind, flow_id: int, frame: Frame) -> None:
        if kind is BEAM:
            self._open_beam(conn, flow_id, frame)
            return
        gen = self._current
        conn.table.open(_ScanFlow(flow_id, gen.backend.stream(), gen))
        self.metrics.counter("server.flows.opened").inc()
        gen.flows_opened.inc()

    def _op(self, conn, flow: _ServerFlow, frame: Frame) -> None:
        if flow.kind is SCAN:
            if frame.type == FrameType.DATA:
                self._data(conn, flow, frame)
            else:
                self._finish_scan(conn, flow)
            return
        if frame.type == FrameType.FINISH_FLOW:
            # Beam flows have no tail: acknowledge with an empty
            # final RESULT (same close discipline as scan).
            self._finished(conn, flow, [])
        else:
            self._step(conn, flow, frame)

    def _data(self, conn, flow: _ScanFlow, frame: Frame) -> None:
        _flow_id, chunk = protocol.decode_data(frame)
        # While draining, flows opened before the drain began may
        # still stream to completion; only opening frames are refused.
        self._flow_bytes.inc(len(chunk))
        flow.gen.bytes.inc(len(chunk))
        started = time.perf_counter()
        try:
            results = flow.session.feed_records(chunk)
        except Exception as exc:  # scan fault: report, drop the flow
            self._fault(conn, flow, exc)
            return
        self._scan_seconds.observe(time.perf_counter() - started)
        if results:
            conn.hold_for(flow.flow_id, results)

    def _finish_scan(self, conn, flow: _ScanFlow) -> None:
        try:
            tail = flow.session.finish_records()
        except Exception as exc:
            self._fault(conn, flow, exc)
            return
        self._finished(conn, flow, tail)

    def _fault(self, conn, flow: _ServerFlow, exc) -> None:
        self.metrics.counter("server.errors.scan").inc()
        self._fail_flow(conn, flow, ErrorCode.INTERNAL, str(exc))

    def _finished(self, conn, flow: _ServerFlow, results: list) -> None:
        """Close ``flow`` with its one final RESULT (what this read's
        DATA frames produced for it rides along)."""
        conn.table.close(flow)
        if flow.kind is SCAN:
            self.metrics.counter("server.flows.finished").inc()
            flow.gen.flows_finished.inc()
        else:
            self.metrics.counter("structgen.beams_closed").inc()
        self.metrics.histogram("latency.flow_s").observe(
            time.monotonic() - flow.opened_at
        )
        self._retire_idle()
        conn.queue_result(flow.flow_id, True, results)

    # ------------------------------------------------------------------
    # constrained-decoding (beam) flows
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

    def _mask_table_for(self, conn, flow_id: int, vocab_hash: str):
        """The table an OPEN_BEAM binds to, or None once the open has
        been refused with ``UNKNOWN_VOCAB``."""
        table = self._find_mask_table(vocab_hash)
        if table is None:
            conn.send_error(
                flow_id, ErrorCode.UNKNOWN_VOCAB,
                f"no mask tables for vocabulary {vocab_hash[:16]} "
                f"(grammar {self._current.ref}); run "
                "`repro structgen precompute`",
            )
        return table

    def _open_beam(self, conn, flow_id: int, frame: Frame) -> None:
        _flow_id, width, vocab_hash = protocol.decode_open_beam(frame)
        table = self._mask_table_for(conn, flow_id, vocab_hash)
        if table is None:
            return
        if table.row_bytes > protocol.MAX_MASKS_ROW_BYTES:
            # MASKS carries row_bytes and delta byte offsets as u16.
            conn.send_error(
                flow_id, ErrorCode.UNKNOWN_VOCAB,
                f"vocabulary {vocab_hash[:16]} has "
                f"{len(table.vocab)} tokens ({table.row_bytes}-byte "
                "rows); beam flows carry at most "
                f"{protocol.MAX_MASKS_ROW_BYTES}-byte rows",
            )
            return
        size = protocol.masks_frame_size(width, table.row_bytes)
        if size > conn.peer_max_frame:
            conn.send_error(
                flow_id, ErrorCode.FRAME_TOO_LARGE,
                f"{width} lanes of {table.row_bytes}-byte rows make "
                f"{size}-byte MASKS frames; the peer's limit is "
                f"{conn.peer_max_frame}",
            )
            return
        from repro.apps.structgen.beam import BeamMaskSession

        session = BeamMaskSession(table, width, metrics=self.metrics)
        flow = _BeamFlow(flow_id, session, self._current)
        conn.table.open(flow)
        self.metrics.counter("structgen.beams_opened").inc()
        conn.queue(self._encode_beam_masks(flow))

    def _step(self, conn, flow: _BeamFlow, frame: Frame) -> None:
        """One BATCH_ADVANCE: one MASKS back. A refused op is
        ``BAD_TOKEN``, and the beam — atomic, the failed op moved
        nothing — stays open on its previous states (the lifecycle
        table's call, in :meth:`_fail_flow`)."""
        from repro.apps.structgen.masks import MaskError

        started = time.perf_counter()
        try:
            reply = self._batch_advance(conn, flow, frame)
        except MaskError as exc:
            self._fail_flow(conn, flow, ErrorCode.BAD_TOKEN, str(exc))
            return
        except ProtocolError:  # a malformed frame: the connection's fault
            raise
        except Exception as exc:
            self._fault(conn, flow, exc)
            return
        self.metrics.histogram("latency.mask_s").observe(
            time.perf_counter() - started
        )
        conn.queue(reply)

    def _batch_advance(self, conn, flow: _BeamFlow, frame: Frame) -> bytes:
        _flow_id, op, arg = protocol.decode_batch_advance(frame)
        if op == BeamOp.ADVANCE:
            flow.session.advance(arg)
        elif op == BeamOp.FORK:
            from repro.apps.structgen.masks import MaskError

            # Refused before the beam moves, like a bad token.
            width = flow.session.width + 1
            size = protocol.masks_frame_size(
                width, flow.session.table.row_bytes
            )
            if width > MAX_BEAM_WIDTH or size > conn.peer_max_frame:
                raise MaskError(
                    f"fork refused: {width} lanes (cap {MAX_BEAM_WIDTH}) "
                    f"make {size}-byte MASKS frames (limit "
                    f"{conn.peer_max_frame})"
                )
            flow.session.fork(arg)
        else:
            flow.session.rollback(arg)
        return self._encode_beam_masks(flow)

    def _encode_beam_masks(self, flow: _BeamFlow) -> bytes:
        """One MASKS frame for the beam's current masks, each lane
        delta-encoded against the row last sent for that lane index
        (full on new lanes or when the patch would not be smaller —
        the resync escape)."""
        from repro.apps.structgen.beam import encode_lane_records

        beam = flow.session
        rb = beam.table.row_bytes
        packed = beam.masks_packed()
        states = beam.states
        records, delta_lanes = encode_lane_records(
            states, packed, flow.rows, rb
        )
        flow.rows = packed
        self.metrics.counter("structgen.beam_lanes_full").inc(
            len(states) - delta_lanes
        )
        self.metrics.counter("structgen.beam_lanes_delta").inc(
            delta_lanes
        )
        return protocol.encode_masks_records(
            flow.flow_id, len(states), rb, records
        )

    # ------------------------------------------------------------------
    # admin routes
    # ------------------------------------------------------------------
    async def _admin_metrics(self, _method, _query) -> tuple[str, str]:
        self.stats()  # refresh gauges
        return "200 OK", self.metrics.render_prometheus()

    async def _admin_healthz(self, _method, _query) -> tuple[str, str]:
        return "200 OK", "ok\n"

    async def _admin_stats(self, _method, _query) -> tuple[str, str]:
        body = json.dumps(self.stats(), indent=2, sort_keys=True)
        return "200 OK", body + "\n"

    async def _admin_swap(self, method: str, query: str) -> tuple[str, str]:
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
