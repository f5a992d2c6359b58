"""The sharded scan service: a process pool behind one submit API.

The paper's tagger reaches multi-gigabit rates by *replicating*
pipelined scanners; :class:`ScanService` is that replication for the
software engines. Flows are hash-sharded to a fixed pool of OS worker
processes (:mod:`repro.service.shard` — per-flow byte order is the
invariant), each worker runs per-flow streaming sessions built from a
picklable :class:`RouterSpec`/:class:`TaggerSpec` shipped once at
spawn, and the parent merges per-flow results in submission order.

Operational semantics:

* **Backpressure** — every worker's task queue is bounded
  (``queue_depth``): :meth:`submit` waits for space, pushing the stall
  onto the producer the way a full hardware FIFO deasserts *ready*,
  and raises :class:`~repro.service.errors.QueueFull` once its
  ``timeout`` runs out.
* **Crash recovery** — a worker that dies is detected by
  supervision, respawned into the same shard, and the journaled
  chunks of its unfinished flows are re-dispatched from flow start
  (scan state is sequential, so recovery must replay). Results the
  dead worker already delivered are suppressed on replay by count,
  so the merged stream has no duplicates and no holes. The journal
  lives until the flow's finish is acknowledged.
* **Graceful shutdown** — :meth:`drain` blocks until every submitted
  task is acknowledged; :meth:`close` drains, stops the workers with
  an end-of-queue message, and joins them. The service is a context
  manager.
* **Observability** — :meth:`stats` snapshots a
  :class:`~repro.service.metrics.MetricsRegistry`: counters for
  chunks/bytes/results/errors, queue-depth gauges, and latency
  histograms for submit wait, worker scan time, and round trip.
"""

from __future__ import annotations

import queue as queue_mod
import time
from dataclasses import dataclass
from typing import Any

from repro.core.options import TaggerOptions
from repro.grammar.cfg import Grammar
from repro.service.errors import (
    QueueFull,
    ServiceClosed,
    ServiceError,
    WorkerCrashed,
)
from repro.service.metrics import MetricsRegistry
from repro.service.shard import ShardRouter

__all__ = [
    "RouterSpec",
    "ScanService",
    "TaggerSpec",
]


# ----------------------------------------------------------------------
# Worker specs: compact, picklable descriptions of what a worker runs.
# Shipped once at spawn; the worker rebuilds the engine through its
# grammar's memo (see CompiledTagger.__reduce__).
# ----------------------------------------------------------------------
def _spec_tagger(spec, options=None, default=None):
    """The streaming :class:`~repro.core.tagger.BehavioralTagger` a
    spec names: its grammar, or the published grammar *and wiring* of
    its ``registry_ref`` (``options``, when given, overrides the
    wiring), on its engine.  A grammar-less spec without a ref scans
    ``default()``; every refusal is a :class:`ServiceError`."""
    from repro.core.capabilities import resolve_engine
    from repro.core.tagger import BehavioralTagger

    try:
        engine = resolve_engine(spec.engine, streaming=True)
    except ValueError as exc:
        raise ServiceError(str(exc)) from None
    grammar = spec.grammar
    if spec.registry_ref is not None:
        from repro.service.registry import Registry, RegistryError

        try:
            artifact = Registry(spec.registry_root).load(spec.registry_ref)
        except RegistryError as exc:
            raise ServiceError(str(exc)) from None
        grammar = artifact.grammar
        if options is None:
            options = artifact.options
    if grammar is None:
        if default is None:
            raise ServiceError(
                f"{type(spec).__name__} needs a grammar or a registry_ref"
            )
        grammar = default()
    return BehavioralTagger(grammar, options, engine=engine)


@dataclass(frozen=True)
class RouterSpec:
    """Workers run :class:`~repro.apps.xmlrpc.router.RouterSession`
    per flow; results are ``RoutedMessage`` lists.

    ``registry_ref`` (``"name@version"``) resolves the grammar and its
    published wiring from the artifact registry at build time —
    workers ship the short ref across the spawn boundary and load
    precompiled tables from the content-addressed store instead of
    unpickling and recompiling a grammar object.
    """

    grammar: Grammar | None = None
    table: Any = None
    method_element: str = "methodName"
    engine: str = "compiled"
    registry_ref: str | None = None
    registry_root: str | None = None

    def build(self):
        """The :class:`~repro.apps.xmlrpc.router.ContentBasedRouter`;
        ``stream()`` opens a flow."""
        from repro.apps.xmlrpc.router import ContentBasedRouter
        from repro.grammar.examples import xmlrpc

        tagger = _spec_tagger(self, default=xmlrpc)
        return ContentBasedRouter(
            grammar=tagger.grammar,
            table=self.table,
            tagger=tagger,
            method_element=self.method_element,
        )


@dataclass(frozen=True)
class TaggerSpec:
    """Workers run :class:`~repro.core.compiled.CompiledStream` per
    flow; results are ``DetectEvent`` lists.

    Either ``grammar`` (a picklable grammar object) or
    ``registry_ref`` (``"name@version"`` into the artifact registry)
    must be set; with a ref, workers load precompiled tables from the
    content-addressed store and ``options`` defaults to the published
    wiring.
    """

    grammar: Grammar | None = None
    options: TaggerOptions | None = None
    engine: str = "compiled"
    registry_ref: str | None = None
    registry_root: str | None = None

    def build(self):
        """The :class:`~repro.core.tagger.BehavioralTagger`;
        ``stream()`` opens a flow."""
        return _spec_tagger(self, self.options)


# ----------------------------------------------------------------------
class ScanService:
    """Sharded multi-process scanning with bounded queues.

    Example
    -------
    >>> from repro.service import RouterSpec, ScanService
    >>> with ScanService(RouterSpec(), n_workers=2) as service:
    ...     service.submit("flow-a", b"<methodCall><methodName>buy"
    ...                    b"</methodName><params></params></methodCall> ")
    ...     service.finish_flow("flow-a")
    ...     service.drain()
    ...     [m.port for m in service.results()["flow-a"]]
    [1]
    """

    def __init__(
        self,
        spec: Any,
        n_workers: int = 2,
        queue_depth: int = 64,
        start_method: str | None = None,
        respawn_limit: int = 3,
    ) -> None:
        if n_workers < 1:
            raise ServiceError("need at least one worker")
        self.spec = spec
        # Built once here so that a bad spec is refused before any
        # worker runs it.
        built = spec.build()
        self.engine = getattr(built, "tagger", built).engine
        self.queue_depth = queue_depth
        self.respawn_limit = respawn_limit
        self.metrics = MetricsRegistry()
        # The pool's modules load here, not with the package: importing
        # repro.service (the registry, the specs) never loads
        # multiprocessing.
        import multiprocessing as mp
        from repro.service.pool import WorkerHandle

        self.shards = ShardRouter(n_workers)
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = mp.get_context(start_method)
        self.workers = [
            WorkerHandle(i, spec, queue_depth, self._ctx)
            for i in range(n_workers)
        ]
        self._started = False
        self._closed = False
        self._task_seq = 0
        #: flow -> journaled ("feed", chunk) / ("finish", None) entries,
        #: kept until the flow's finish is acknowledged (replay source).
        self._journal: dict[Any, list[tuple[str, bytes | None]]] = {}
        #: flow -> results already merged (dedup base for replay).
        self._emitted: dict[Any, int] = {}
        #: flow -> replayed results still to suppress.
        self._skip: dict[Any, int] = {}
        self._results: dict[Any, list] = {}
        #: task_id -> (worker, op, flow, submit_monotonic)
        self._inflight: dict[int, tuple[int, str, Any, float]] = {}
        self._worker_errors: list[str] = []
        self._respawns = [0] * n_workers

    # ------------------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return len(self.workers)

    def start(self) -> "ScanService":
        """Spawn the worker pool (idempotent; submit() does it lazily)."""
        self._ensure_open()
        if not self._started:
            for handle in self.workers:
                handle.spawn()
            self._started = True
        return self

    def __enter__(self) -> "ScanService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Don't mask an in-flight exception with a drain timeout.
        self.close(drain=exc_type is None)
        return False

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServiceClosed("service already closed")

    # ------------------------------------------------------------------
    # submission API
    # ------------------------------------------------------------------
    def submit(
        self, flow: Any, chunk: bytes, timeout: float | None = None
    ) -> None:
        """Queue one chunk of ``flow`` for scanning.

        Chunks of one flow are scanned in submission order on one
        worker. A full queue makes this call wait for space (up to
        ``timeout`` seconds, then :class:`QueueFull`).
        """
        self._ensure_open()
        self.start()
        self._collect()
        self._journal.setdefault(flow, []).append(("feed", chunk))
        self.metrics.counter("submitted.chunks").inc()
        self.metrics.counter("submitted.bytes").inc(len(chunk))
        self._dispatch("feed", flow, chunk, timeout=timeout)

    def finish_flow(self, flow: Any, timeout: float | None = None) -> None:
        """Queue the end-of-data flush for ``flow`` (its tail results
        appear in :meth:`results` once acknowledged)."""
        self._ensure_open()
        self.start()
        self._collect()
        self._journal.setdefault(flow, []).append(("finish", None))
        self._dispatch("finish", flow, None, timeout=timeout)

    # ------------------------------------------------------------------
    def _next_task(self) -> int:
        self._task_seq += 1
        return self._task_seq

    def _dispatch(
        self,
        op: str,
        flow: Any,
        chunk: bytes | None,
        timeout: float | None = None,
    ) -> None:
        """Hand one journaled task to the owning shard, honoring
        backpressure."""
        worker = self.shards.worker_of(flow)
        task_id = self._next_task()
        message = (
            (op, task_id, flow)
            if chunk is None
            else (op, task_id, flow, chunk)
        )
        handle = self.workers[worker]
        started = time.monotonic()
        deadline = None if timeout is None else started + timeout

        while True:
            if not handle.alive and not handle.stopping:
                self._recover(worker)
                # The replay delivered this task (it was journaled
                # before dispatch); nothing left to enqueue.
                self._observe_wait(started)
                return
            try:
                handle.tasks.put(message, timeout=0.05)
                break
            except queue_mod.Full:
                self._collect()
                if deadline is not None and time.monotonic() > deadline:
                    # Undo the journal entry: this task was never
                    # delivered, and a future replay must not invent it.
                    self._journal[flow].pop()
                    self.metrics.counter("errors.queue_full").inc()
                    raise QueueFull(worker, self.queue_depth) from None

        self._observe_wait(started)
        self._inflight[task_id] = (worker, op, flow, time.monotonic())

    def _observe_wait(self, started: float) -> None:
        self.metrics.histogram("latency.submit_wait_s").observe(
            time.monotonic() - started
        )

    # ------------------------------------------------------------------
    # result collection and supervision
    # ------------------------------------------------------------------
    def _collect(self, block: bool = False, wait: float = 0.1) -> int:
        """Drain every readable worker's result queue.

        With ``block=True`` and nothing pending, waits up to ``wait``
        seconds for any worker's queue to become readable, then sweeps
        once more. Queues of crashed workers are never read — a death
        mid-send can tear a message, and a torn message blocks the
        reader forever; their results are regenerated by replay.
        """
        if self._closed:
            # post-close results() reads the already-merged buffers
            return 0
        handled = self._sweep()
        if handled or not block:
            return handled
        readers = [
            handle.results._reader
            for handle in self.workers
            if handle.readable
        ]
        if readers:
            from multiprocessing.connection import wait as wait_any

            wait_any(readers, timeout=wait)
        return self._sweep()

    def _sweep(self) -> int:
        """One non-blocking pass over all readable result queues."""
        handled = 0
        for handle in self.workers:
            if not handle.readable:
                continue
            while True:
                try:
                    item = handle.results.get_nowait()
                except queue_mod.Empty:
                    break
                except (OSError, ValueError):  # pragma: no cover
                    break  # queue torn down under us mid-sweep
                self._merge(item)
                handled += 1
        return handled

    def _merge(self, item: tuple) -> None:
        """Fold one worker reply into the per-flow result streams."""
        _worker, task_id, op, flow, out, elapsed, error = item
        if op == "stopped":
            return
        known = task_id in self._inflight
        if known:
            _w, _op, _flow, submitted = self._inflight.pop(task_id)
            self.metrics.histogram("latency.roundtrip_s").observe(
                time.monotonic() - submitted
            )
        self.metrics.histogram("latency.scan_s").observe(elapsed)
        if error is not None:
            self.metrics.counter("errors.worker").inc()
            self._worker_errors.append(error)
            return
        if not known:
            # A task superseded by journal replay (its worker died
            # after computing it): the replay regenerates these
            # results, so applying them too would double-count.
            self.metrics.counter("dropped.stale").inc()
            return
        if out:
            skip = self._skip.get(flow, 0)
            if skip:
                dropped = min(skip, len(out))
                self._skip[flow] = skip - dropped
                out = out[dropped:]
                self.metrics.counter("dropped.duplicates").inc(dropped)
        if out:
            self._results.setdefault(flow, []).extend(out)
            self._emitted[flow] = self._emitted.get(flow, 0) + len(out)
            self.metrics.counter("results.items").inc(len(out))
        self.metrics.counter("results.tasks").inc()
        if op == "finish":
            # The flow is complete and its results are safe in the
            # parent: the replay journal has done its job.
            self._journal.pop(flow, None)
            self._skip.pop(flow, None)

    def _check_workers(self) -> None:
        """Detect dead workers and recover their shards."""
        for handle in self.workers:
            if not handle.alive and not handle.stopping and self._started:
                self._recover(handle.index)

    def _recover(self, worker: int) -> None:
        """Respawn a dead worker and replay its unfinished flows."""
        handle = self.workers[worker]
        if handle.alive or handle.stopping:
            return
        self._respawns[worker] += 1
        if self._respawns[worker] > self.respawn_limit:
            raise WorkerCrashed(
                f"worker {worker} crashed {self._respawns[worker]} times "
                f"(respawn limit {self.respawn_limit})"
            )
        # The dead worker's result queue is not readable (a death
        # mid-send can tear a message); whatever it delivered but we
        # never merged is regenerated by the replay below, and the
        # skip count only covers results that were actually merged.
        self._collect()
        self.metrics.counter("respawns").inc()
        # In-flight tasks addressed to the dead worker are void: either
        # their results were banked above, or the journal regenerates
        # them.
        for task_id in [
            tid
            for tid, (w, _op, _flow, _t) in self._inflight.items()
            if w == worker
        ]:
            del self._inflight[task_id]
        handle.spawn()
        for flow, entries in self._journal.items():
            if self.shards.worker_of(flow) != worker or not entries:
                continue
            self._skip[flow] = self._emitted.get(flow, 0)
            for op, chunk in entries:
                task_id = self._next_task()
                message = (
                    (op, task_id, flow)
                    if chunk is None
                    else (op, task_id, flow, chunk)
                )
                while True:
                    try:
                        handle.tasks.put(message, timeout=0.1)
                        break
                    except queue_mod.Full:
                        self._collect()
                self._inflight[task_id] = (
                    worker, op, flow, time.monotonic(),
                )
                self.metrics.counter("replayed.tasks").inc()

    # ------------------------------------------------------------------
    # drain / results / stats / shutdown
    # ------------------------------------------------------------------
    def drain(self, timeout: float = 60.0) -> None:
        """Block until every submitted task has been acknowledged.

        Raises :class:`ServiceError` on timeout or if any worker task
        failed (the first worker traceback is included).
        """
        self._ensure_open()
        deadline = time.monotonic() + timeout
        while self._inflight:
            self._check_workers()
            self._collect(block=True, wait=0.05)
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"drain timed out with {len(self._inflight)} tasks "
                    "in flight"
                )
        if self._worker_errors:
            raise ServiceError(
                "worker task failed:\n" + self._worker_errors[0]
            )

    def results(self) -> dict[Any, list]:
        """Per-flow merged results so far (submission order within a
        flow). Call :meth:`drain` first for a complete view."""
        self._collect()
        return {flow: list(items) for flow, items in self._results.items()}

    def pop_results(self) -> dict[Any, list]:
        """Like :meth:`results` but hands ownership over: the internal
        buffers are cleared (flow replay dedup accounting is kept)."""
        out = self.results()
        self._results.clear()
        return out

    def stats(self) -> dict:
        """Snapshot of counters, gauges, and latency histograms."""
        for handle in self.workers:
            self.metrics.gauge(f"queue.depth.{handle.index}").set(
                handle.queue_size()
            )
        self.metrics.gauge("inflight").set(len(self._inflight))
        self.metrics.gauge("flows.open").set(len(self._journal))
        snapshot = self.metrics.snapshot()
        snapshot["workers"] = {
            "count": self.n_workers,
            "alive": sum(1 for h in self.workers if h.alive),
            "respawns": list(self._respawns),
        }
        from repro.core.capabilities import engine_capabilities

        snapshot["engine"] = engine_capabilities(self.engine)
        return snapshot

    def close(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Graceful shutdown: optional drain, then stop and join the
        workers. Idempotent; the context manager calls it."""
        if self._closed:
            return
        try:
            if drain and self._started and self._inflight:
                self.drain(timeout=timeout)
        finally:
            self._closed = True
            if self._started:
                for handle in self.workers:
                    handle.stop()

    # ------------------------------------------------------------------
    def run_streams(
        self,
        streams: dict[Any, bytes],
        chunk_size: int = 4096,
        finish: bool = True,
    ) -> dict[Any, list]:
        """Convenience: scan whole per-flow byte streams.

        Chunks are submitted round-robin across flows (the interleaved
        arrival pattern sharding exists for), flows are finished, the
        service drains, and the merged per-flow results are returned.
        """
        offsets = {flow: 0 for flow in streams}
        pending = list(streams)
        while pending:
            still = []
            for flow in pending:
                data = streams[flow]
                offset = offsets[flow]
                if offset < len(data):
                    self.submit(flow, data[offset : offset + chunk_size])
                    offsets[flow] = offset + chunk_size
                if offsets[flow] < len(data):
                    still.append(flow)
                elif finish:
                    self.finish_flow(flow)
            pending = still
        self.drain()
        return self.results()

    def _inject_crash(self, worker: int) -> None:
        """Test hook: make one worker die mid-service (os._exit)."""
        self.workers[worker].tasks.put(("crash",))
