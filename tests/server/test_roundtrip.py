"""Differential correctness over TCP: results streamed through the
framed protocol must be byte-for-byte what the single-process
``ContentBasedRouter.route`` produces — multi-flow, chunked at
adversarial boundaries."""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.xmlrpc import ContentBasedRouter, WorkloadGenerator
from repro.server import ScanClient, protocol
from repro.server.protocol import FrameType
from repro.service import TaggerSpec

from tests.server.conftest import FrameReader, running_server


def run(coro):
    return asyncio.run(coro)


async def _scan_all(server, streams, chunk_size):
    """One connection, all flows interleaved round-robin at
    ``chunk_size`` boundaries (the arrival pattern multiplexing is
    for), results collected per flow."""
    host, port = server.address
    async with ScanClient(host, port) as client:
        flows = {
            name: (await client.open_flow(), data)
            for name, data in streams.items()
        }
        offset = 0
        while any(offset < len(d) for _f, d in flows.values()):
            for _name, (flow, data) in flows.items():
                if offset < len(data):
                    await flow.send(data[offset : offset + chunk_size])
            offset += chunk_size
        return {
            name: await flow.finish()
            for name, (flow, _data) in flows.items()
        }


# ----------------------------------------------------------------------
@pytest.mark.parametrize("chunk_size", [1, 7, 64, 313, 4096])
def test_in_process_roundtrip_matches_route(streams, expected, chunk_size):
    """The acceptance invariant: every adversarial chunking merges to
    the exact single-process results."""

    async def main():
        async with running_server() as server:
            got = await _scan_all(server, streams, chunk_size)
        assert got == expected

    run(main())


def test_many_connections_share_one_server(streams, expected):
    """Flow ids are connection-scoped: concurrent connections reusing
    the same small ids must not collide."""

    async def one(server, name, data):
        host, port = server.address
        async with ScanClient(host, port) as client:
            return name, await client.scan_stream(data, chunk_size=100)

    async def main():
        async with running_server() as server:
            pairs = await asyncio.gather(
                *(one(server, n, d) for n, d in streams.items())
            )
        assert dict(pairs) == expected

    run(main())


def test_partial_results_stream_before_finish(streams, expected):
    """In-process flows emit RESULT frames as messages complete, not
    only at FINISH_FLOW: the client sees partials accumulate."""

    async def main():
        name = "flow-0"
        data = streams[name]
        async with running_server() as server:
            host, port = server.address
            async with ScanClient(host, port) as client:
                flow = await client.open_flow()
                await flow.send(data)  # all bytes, no finish yet
                await asyncio.sleep(0.05)
                partial = len(flow.partial)
                final = await flow.finish()
        # Every whole message was already delivered pre-finish (the
        # last one may await its end-of-data look-ahead byte).
        assert partial >= len(expected[name]) - 1
        assert final == expected[name]

    run(main())


def test_tagger_spec_events_over_wire(streams):
    """The wire carries whatever the spec's sessions emit: a
    TaggerSpec server streams raw DetectEvents."""
    from repro.core.compiled import CompiledTagger
    from repro.grammar.examples import xmlrpc

    data = streams["flow-1"]
    local = CompiledTagger(xmlrpc()).events(data)

    async def main():
        async with running_server(spec=TaggerSpec(xmlrpc())) as server:
            host, port = server.address
            async with ScanClient(host, port) as client:
                got = await client.scan_stream(data, chunk_size=501)
        assert got == local

    run(main())


def test_server_stats_count_flows(streams):
    async def main():
        async with running_server() as server:
            host, port = server.address
            async with ScanClient(host, port) as client:
                await client.scan_stream(streams["flow-0"], 256)
            stats = server.stats()
        counters = stats["counters"]
        assert counters["server.flows.opened"] == 1
        assert counters["server.flows.finished"] == 1
        assert counters["server.connections.opened"] == 1
        assert counters["server.rx.frames"] > 2

    run(main())


# ----------------------------------------------------------------------
# Cross-frame scanning. A client sends the chunks of one loop turn as
# one DATA frame, so the tests above reach the server in few frames;
# this one writes a flow's bytes as DATA frames cut anywhere over a raw
# connection, so the server's scan carries state across every cut.
#: The ledger's ``scan-dense`` recipe (200 messages a flow) and a
#: ``scan-shortflows``-sized flow of two.
_CUT_FLOWS = {
    "dense": WorkloadGenerator(seed=2006).stream(200)[0],
    "short": WorkloadGenerator(seed=2007).stream(2)[0],
}
_CUT_ROUTED = {
    name: ContentBasedRouter().route(data) for name, data in _CUT_FLOWS.items()
}


async def _raw_flow(address, data: bytes, cuts: list, one_write: bool):
    """``data`` as flow 1 on a raw connection: OPEN, a DATA frame per
    piece between ``cuts``, FINISH, in one write or one write per
    frame; the flow's results over all its RESULT frames."""
    reader, writer = await asyncio.open_connection(*address)
    replies = FrameReader(reader)
    writer.write(protocol.encode_hello())
    assert (await replies.frame()).type == FrameType.HELLO
    bounds = [0, *cuts, len(data)]
    frames = [
        protocol.encode_open_flow(1),
        *(protocol.encode_data(1, data[a:b]) for a, b in zip(bounds, bounds[1:])),
        protocol.encode_finish_flow(1),
    ]
    for blob in [b"".join(frames)] if one_write else frames:
        writer.write(blob)
        await writer.drain()
    results, final = [], False
    while not final:
        frame = await asyncio.wait_for(replies.frame(), 10.0)
        assert frame.type == FrameType.RESULT, frame
        _flow, final, items = protocol.decode_result(frame, data)
        results += items
    writer.close()
    return results


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(_CUT_FLOWS)), draw=st.data())
def test_data_frames_cut_anywhere_scan_as_one_stream(name, draw):
    data = _CUT_FLOWS[name]
    cuts = sorted(
        draw.draw(st.lists(st.integers(0, len(data)), max_size=40))
    )

    async def main():
        async with running_server() as server:
            for one_write in (True, False):
                got = await _raw_flow(server.address, data, cuts, one_write)
                assert got == _CUT_ROUTED[name]

    run(main())
