"""The read turn's fold: a flow's DATA waits in the read's held slot
until that flow's frames in the read end, and is scanned as one chunk —
with end-of-data in the same scan when its FINISH_FLOW follows.

* Hypothesis, router and tagger specs: however a flow's bytes are cut
  into DATA frames, and those frames into reads, the server sends the
  same records in the same order, one final RESULT last, and the client
  decodes the in-process result from them.
* Named cases: the whole flow in one read (one RESULT, counted in
  ``server.flows.one_read``), FINISH_FLOW in the next read, an empty
  DATA, FINISH_FLOW without DATA, and DATA of one flow next to the
  FINISH_FLOW of another (no fold across flows).
* A flow scanned (folded) on a ring member, then lost to ``DRAINING``
  or ``IDLE_TIMEOUT``, replays its journal on a member and still ends
  with the in-process result.
* A server built with ``REPRO_DISABLE_NATIVE`` set encodes RESULTs with
  the portable twin, byte for byte the kernel's frames, even once the
  variable is gone; a kernel passed to ``encode_result_frames`` leaves
  a record it cannot encode to the twin.
"""

import asyncio
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.xmlrpc import ContentBasedRouter, WorkloadGenerator
from repro.apps.xmlrpc.messages import RouteRecord
from repro.core.compiled import CompiledTagger
from repro.grammar.examples import xmlrpc
from repro.server import ScanClient, ScanProxy, ScanServer, protocol
from repro.server.protocol import FrameDecoder, FrameType
from repro.service import RouterSpec, TaggerSpec

FLOW, OTHER = 1, 2

SPECS = {
    "router": (
        RouterSpec(engine="native"),
        lambda data: ContentBasedRouter().route(data),
    ),
    "tagger": (
        TaggerSpec(xmlrpc(), engine="native"),
        lambda data: CompiledTagger(xmlrpc()).events(data),
    ),
}
DATA = WorkloadGenerator(seed=41).stream(3)[0]


@pytest.fixture(scope="module")
def servers():
    """One unstarted server per spec; each test case talks to a fresh
    connection of it, driven by hand."""
    return {kind: ScanServer(spec) for kind, (spec, _local) in SPECS.items()}


class _Pipe:
    """A transport that keeps what it is given."""

    def __init__(self) -> None:
        self.written: list[bytes] = []

    def take(self) -> bytes:
        data = b"".join(self.written)
        self.written.clear()
        return data

    def write(self, data) -> None:
        self.written.append(bytes(data))

    def set_write_buffer_limits(self, high=None, low=None) -> None:
        pass

    def pause_reading(self) -> None:
        pass

    def resume_reading(self) -> None:
        pass

    def close(self) -> None:
        pass


def _serve(server: ScanServer, reads: list[bytes]) -> tuple[bytes, int]:
    """What a fresh connection of ``server`` writes back when handed
    ``reads`` one ``data_received`` each (the handshake before them),
    and how many flows it counted as arriving in one read."""

    async def main():
        conn = server._accept()
        pipe = _Pipe()
        conn.connection_made(pipe)
        before = server._one_read.value
        try:
            conn.data_received(protocol.encode_hello())
            pipe.take()
            for read in reads:
                conn.data_received(read)
            return pipe.take(), server._one_read.value - before
        finally:
            conn.connection_lost(None)

    return asyncio.run(main())


def _results(wire: bytes, flow_id: int = FLOW) -> tuple[list, list[bool]]:
    """``flow_id``'s RESULT record blocks in ``wire``, and each one's
    final flag."""
    blocks, finals = [], []
    for frame in FrameDecoder().feed(wire):
        assert frame.type == FrameType.RESULT, frame
        fid, final, block = protocol.split_result(frame)
        if fid == flow_id:
            blocks.append(bytes(block))
            finals.append(final)
    return blocks, finals


def _records(blocks, data=None) -> list:
    return [
        item
        for block in blocks
        for item in protocol.decode_result_block(block, data)
    ]


def _flow_wire(pieces: list[bytes], flow_id: int = FLOW) -> bytes:
    return (
        protocol.encode_open_flow(flow_id)
        + b"".join(protocol.encode_data(flow_id, p) for p in pieces)
        + protocol.encode_finish_flow(flow_id)
    )


def _cut(data: bytes, cuts) -> list[bytes]:
    points = sorted({min(c, len(data)) for c in cuts})
    return [data[a:b] for a, b in zip([0, *points], [*points, len(data)])]


def _check(servers, kind: str, reads: list[bytes]) -> int:
    """The flow's records are the one-read case's, its final RESULT is
    the last, and the client decodes the in-process result."""
    _spec, local = SPECS[kind]
    wire, one_read = _serve(servers[kind], reads)
    blocks, finals = _results(wire)
    assert finals[-1] is True and not any(finals[:-1])
    whole, _ = _serve(servers[kind], [b"".join(reads)])
    assert _records(blocks) == _records(_results(whole)[0])
    assert _records(blocks, DATA) == local(DATA)
    return one_read


# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(SPECS)),
    st.lists(st.integers(0, len(DATA)), max_size=6),
    st.data(),
)
def test_records_do_not_depend_on_how_the_flow_splits(
    servers, kind, data_cuts, data
):
    wire = _flow_wire(_cut(DATA, data_cuts))
    read_cuts = data.draw(st.lists(st.integers(0, len(wire)), max_size=6))
    _check(servers, kind, _cut(wire, read_cuts))


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_a_flow_in_one_read_is_one_result_and_counted(servers, kind):
    wire, one_read = _serve(servers[kind], [_flow_wire([DATA[:200], DATA[200:]])])
    blocks, finals = _results(wire)
    assert finals == [True]
    assert one_read == 1
    assert _check(servers, kind, [_flow_wire([DATA])]) == 1
    counters = servers[kind].stats()["counters"]
    assert counters["server.flows.one_read"] == servers[kind]._one_read.value


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_finish_in_the_next_read(servers, kind):
    wire = _flow_wire([DATA])
    finish = len(protocol.encode_finish_flow(FLOW))
    assert _check(servers, kind, [wire[:-finish], wire[-finish:]]) == 0


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_empty_data_frames(servers, kind):
    pieces = [b"", DATA[:77], b"", DATA[77:], b""]
    assert _check(servers, kind, [_flow_wire(pieces)]) == 1
    wire = _flow_wire(pieces)
    _check(servers, kind, [wire[:30], wire[30:]])


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_finish_without_data(servers, kind):
    wire, one_read = _serve(servers[kind], [_flow_wire([])])
    blocks, finals = _results(wire)
    assert finals == [True] and _records(blocks) == []
    assert one_read == 1


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_data_of_one_flow_does_not_fold_into_anothers_finish(servers, kind):
    """DATA for flow A, then FINISH_FLOW for flow B, in one read: B's
    final RESULT carries B's records only; A's chunk is scanned without
    end-of-data and answered in a RESULT of A's own, and A finishes
    later with the in-process result."""
    _spec, local = SPECS[kind]
    half = len(DATA) // 2
    opened = (
        protocol.encode_open_flow(FLOW)
        + protocol.encode_open_flow(OTHER)
        + protocol.encode_data(OTHER, DATA)
    )
    read = protocol.encode_data(FLOW, DATA[:half]) + protocol.encode_finish_flow(
        OTHER
    )
    tail = protocol.encode_data(FLOW, DATA[half:]) + protocol.encode_finish_flow(
        FLOW
    )
    wire, one_read = _serve(servers[kind], [opened, read, tail])
    assert one_read == 0
    other, other_finals = _results(wire, OTHER)
    assert other_finals[-1] is True
    assert _records(other, DATA) == local(DATA)
    mine, finals = _results(wire, FLOW)
    assert finals == [False, True] or finals == [True]
    assert _records(mine, DATA) == local(DATA)


# ----------------------------------------------------------------------
@pytest.mark.parametrize("code", ["DRAINING", "IDLE_TIMEOUT"])
def test_replay_after_a_fold(code):
    """A ring member scanned the flow's first DATA (its records came
    back) and then lost it — a drain, or an idle reap of the link. The
    client drops those records, replays the journal on a member and
    ends with the in-process result."""
    data = WorkloadGenerator(seed=43).stream(4)[0]
    half = len(data) // 2
    idle = 0.4 if code == "IDLE_TIMEOUT" else 30.0

    async def main():
        servers = [
            await ScanServer(port=0, idle_timeout=idle).start()
            for _ in range(2)
        ]
        proxy = await ScanProxy(
            [s.address for s in servers], port=0, health_interval=0.2
        ).start()
        try:
            async with ScanClient(*proxy.address) as client:
                flow = await client.open_flow()
                await flow.send(data[: half // 2])
                await flow.send(data[half // 2 : half])
                for _ in range(100):
                    await asyncio.sleep(0.01)
                    if flow.blocks:
                        break
                assert flow.blocks, "no records came back before the loss"
                victim = next(
                    s for s in servers
                    if "%s:%d" % s.address == flow.member
                )
                if code == "DRAINING":
                    await victim.stop(drain=True, timeout=0.2)
                else:
                    await asyncio.sleep(2.5 * idle)
                await flow.send(data[half:])
                got = await flow.finish(timeout=15.0)
                assert client.placements >= 2
            return got
        finally:
            await proxy.stop(drain=False)
            for server in servers:
                await server.stop(drain=False)

    assert asyncio.run(main()) == ContentBasedRouter().route(data)


# ----------------------------------------------------------------------
def test_result_frames_of_a_server_built_without_the_kernel(monkeypatch):
    """``REPRO_DISABLE_NATIVE`` at build time: the generation encodes
    with the portable twin for good (the variable is not read per
    RESULT), and its frames are byte for byte the kernel-built ones."""
    from repro.core import _native_build

    monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
    if _native_build.load_kernel() is None:
        pytest.skip("native kernel unavailable")
    spec = RouterSpec(engine="native")
    kernel_server = ScanServer(spec)
    monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    twin_server = ScanServer(spec)
    monkeypatch.delenv("REPRO_DISABLE_NATIVE")
    assert twin_server._current.kernel is None
    assert kernel_server._current.kernel is not None
    data = WorkloadGenerator(seed=47).stream(20)[0]
    reads = [_flow_wire([data[:1000], data[1000:]])]
    twin, _ = _serve(twin_server, reads)
    assert twin == _serve(kernel_server, reads)[0]
    assert _records(_results(twin)[0], data) == ContentBasedRouter().route(data)


@pytest.mark.parametrize(
    "item",
    [
        RouteRecord(0, 1, 0, "\ud800"),  # a lone surrogate: no UTF-8
        RouteRecord(0, 1, 2**31, None),
        SimpleNamespace(start=0, end=3, port=1, service="buy"),
    ],
)
def test_a_passed_kernel_leaves_what_it_declines_to_the_twin(item):
    """The kernel a server resolved for its generation, passed in, on a
    record it cannot encode: the twin decides, as with no kernel."""
    from repro.core import _native_build

    ext = _native_build.load_kernel()
    if ext is None:
        pytest.skip("native kernel unavailable")
    items = [RouteRecord(0, 1, 0, "buy"), item]
    assert protocol._routed_frames(ext, FLOW, True, items, 4096) is None
    try:
        twin = protocol.encode_result_frames(FLOW, True, items, 4096, None)
    except protocol.ProtocolError as exc:
        with pytest.raises(protocol.ProtocolError) as info:
            protocol.encode_result_frames(FLOW, True, items, 4096, ext)
        assert (info.value.code, str(info.value)) == (exc.code, str(exc))
        return
    assert protocol.encode_result_frames(FLOW, True, items, 4096, ext) == twin
