"""ScanService semantics: equality with the single-process router,
chunk-split invariance, backpressure, crash recovery, lifecycle."""

import os

import pytest

from repro.apps.xmlrpc import ContentBasedRouter, WorkloadGenerator
from repro.grammar.examples import xmlrpc
from repro.service import (
    QueueFull,
    RouterSpec,
    ScanService,
    ServiceClosed,
    ServiceError,
    TaggerSpec,
    WorkerCrashed,
)


@pytest.fixture(scope="module")
def streams():
    """Six flows of a few messages each, deterministic."""
    generator = WorkloadGenerator(seed=7)
    out = {}
    for index in range(6):
        data, _truth = generator.stream(5)
        out[f"flow-{index}"] = data
    return out


@pytest.fixture(scope="module")
def expected(streams):
    router = ContentBasedRouter()
    return {flow: router.route(data) for flow, data in streams.items()}


def chunked(data: bytes, size: int) -> list[bytes]:
    return [data[i : i + size] for i in range(0, len(data), size)]


# ----------------------------------------------------------------------
def test_sharded_equals_single_process(streams, expected):
    """The acceptance invariant: per-flow results from the 2-worker
    pool are byte-for-byte what ContentBasedRouter.route produces."""
    with ScanService(RouterSpec(), n_workers=2) as service:
        got = service.run_streams(streams, chunk_size=512)
    assert got == expected


def test_chunk_split_invariance(streams, expected):
    """Chunk boundaries are arbitrary: every split of the same flow
    bytes merges to the same results through the sharded service."""
    flow = "flow-0"
    data = streams[flow]
    for size in (1 + len(data) // 3, 64, 7):
        with ScanService(RouterSpec(), n_workers=2) as service:
            for chunk in chunked(data, size):
                service.submit(flow, chunk)
            service.finish_flow(flow)
            service.drain()
            assert service.results()[flow] == expected[flow]


def test_interleaved_submission_preserves_flow_order(streams, expected):
    """Round-robin interleaving across flows must not reorder any one
    flow's results (hash sharding + per-worker FIFO)."""
    with ScanService(RouterSpec(), n_workers=3) as service:
        pieces = {f: chunked(d, 256) for f, d in streams.items()}
        round_index = 0
        while any(pieces.values()):
            for flow in list(pieces):
                if round_index < len(pieces[flow]):
                    service.submit(flow, pieces[flow][round_index])
            round_index += 1
            if round_index >= max(len(p) for p in pieces.values()):
                break
        for flow, chunks in pieces.items():
            for chunk in chunks[round_index:]:
                service.submit(flow, chunk)
            service.finish_flow(flow)
        service.drain()
        assert service.results() == expected


def test_tagger_spec_raw_events(streams):
    """TaggerSpec workers return raw DetectEvents equal to a local
    CompiledTagger scan."""
    from repro.core.compiled import CompiledTagger

    data = streams["flow-1"]
    local = CompiledTagger(xmlrpc()).events(data)
    with ScanService(TaggerSpec(xmlrpc()), n_workers=2) as service:
        got = service.run_streams({"f": data}, chunk_size=333)
    assert got["f"] == local


# ----------------------------------------------------------------------
def test_block_policy_timeout(streams):
    """A submit with a timeout raises QueueFull once the deadline
    passes rather than waiting forever."""
    big = streams["flow-3"] * 1000  # keeps the one worker busy a while
    with ScanService(RouterSpec(), n_workers=1, queue_depth=1) as service:
        service.submit("f", big)
        service.submit("f", b" ")  # fills the bounded queue
        with pytest.raises(QueueFull):
            service.submit("f", b" ", timeout=0.05)
        service.drain(timeout=300)


# ----------------------------------------------------------------------
def test_crash_respawn_and_replay(streams, expected):
    """Kill a worker mid-stream: the supervisor respawns it, replays
    the journaled chunks, and the merged results are still exactly the
    single-process answer (no duplicates, no holes)."""
    flow = "flow-4"
    chunks = chunked(streams[flow], 300)
    half = len(chunks) // 2
    with ScanService(RouterSpec(), n_workers=2) as service:
        for chunk in chunks[:half]:
            service.submit(flow, chunk)
        service.drain()
        service._inject_crash(service.shards.worker_of(flow))
        for chunk in chunks[half:]:
            service.submit(flow, chunk)
        service.finish_flow(flow)
        service.drain()
        assert service.results()[flow] == expected[flow]
        stats = service.stats()
        assert sum(stats["workers"]["respawns"]) >= 1
        assert stats["counters"]["replayed.tasks"] >= 1


def test_respawn_limit_raises(streams):
    flow = "flow-5"
    with ScanService(RouterSpec(), n_workers=1, respawn_limit=1) as service:
        service.submit(flow, streams[flow][:100])
        service.drain()
        with pytest.raises(WorkerCrashed):
            for _ in range(4):
                service._inject_crash(0)
                service.submit(flow, b"x")
                service.drain()
        # The pool is beyond recovery; a draining close would re-raise.
        service.close(drain=False)


# ----------------------------------------------------------------------
def test_closed_service_rejects_work(streams):
    service = ScanService(RouterSpec(), n_workers=1)
    service.close()
    with pytest.raises(ServiceClosed):
        service.submit("f", b"x")
    service.close()  # idempotent


def test_context_manager_drains(streams, expected):
    flow = "flow-0"
    with ScanService(RouterSpec(), n_workers=2) as service:
        for chunk in chunked(streams[flow], 400):
            service.submit(flow, chunk)
        service.finish_flow(flow)
    # __exit__ drained before stopping the workers.
    assert service.results()[flow] == expected[flow]


def test_pop_results_hands_over(streams, expected):
    flow = "flow-1"
    with ScanService(RouterSpec(), n_workers=2) as service:
        service.submit(flow, streams[flow])
        service.finish_flow(flow)
        service.drain()
        first = service.pop_results()
        assert first[flow] == expected[flow]
        assert service.results() == {}


def test_invalid_options():
    with pytest.raises(ServiceError):
        ScanService(RouterSpec(), n_workers=0)


def test_stats_shape(streams):
    with ScanService(RouterSpec(), n_workers=2) as service:
        service.submit("f", streams["flow-0"][:200])
        service.drain()
        stats = service.stats()
    assert stats["counters"]["submitted.chunks"] == 1
    assert stats["counters"]["submitted.bytes"] == 200
    assert stats["workers"]["count"] == 2
    assert "latency.roundtrip_s" in stats["histograms"]
    assert "queue.depth.0" in stats["gauges"]
    assert "queue.depth.1" in stats["gauges"]


# ----------------------------------------------------------------------
@pytest.mark.skipif(
    not os.environ.get("RUN_SERVICE_SMOKE"),
    reason="heavy smoke test; set RUN_SERVICE_SMOKE=1 (CI gated suite)",
)
def test_service_smoke_1k_messages():
    """Gated smoke: 2-worker pool, 1000 messages across 10 flows,
    asserts a clean drain and zero lost events vs the single-process
    router."""
    generator = WorkloadGenerator(seed=1000)
    streams = {}
    for index in range(10):
        data, _truth = generator.stream(100)
        streams[f"smoke-{index}"] = data
    router = ContentBasedRouter()
    expected = {f: router.route(d) for f, d in streams.items()}
    n_messages = sum(len(v) for v in expected.values())
    assert n_messages == 1000
    with ScanService(RouterSpec(), n_workers=2) as service:
        got = service.run_streams(streams, chunk_size=2048)
        stats = service.stats()
    assert got == expected
    assert stats["gauges"]["inflight"] == 0
    assert stats["counters"]["results.items"] == n_messages
