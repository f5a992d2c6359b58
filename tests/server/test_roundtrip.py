"""Differential correctness over TCP: results streamed through the
framed protocol must be byte-for-byte what the single-process
``ContentBasedRouter.route`` produces — multi-flow, chunked at
adversarial boundaries."""

import asyncio

import pytest

from repro.server import ScanClient
from repro.service import TaggerSpec

from tests.server.conftest import running_server


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
