"""The corked wire: one ``transport.write`` per event-loop turn on
every hop (``protocol.FramedProtocol`` — client, proxy and server write
through the same one), bounded by the 64 KiB high-water mark.

What is pinned here are counts that repeat exactly — writes and reads
per flow, read off the ``<role>.rx.reads`` / ``<role>.tx.writes``
counters and off the client's transport — plus wire order, the
backpressure bound, the held DATA slot (a flow's chunks of one turn
leave as one frame) and what happens to queued frames when a
connection closes or dies.
"""

import asyncio
import contextlib

import pytest

from repro.apps.structgen import build_mask_table, synthetic_vocab
from repro.apps.structgen.beam import BeamMaskSession
from repro.apps.xmlrpc import ContentBasedRouter, WorkloadGenerator
from repro.grammar.examples import xmlrpc
from repro.server import ScanClient, ScanProxy, protocol
from repro.server.protocol import FrameType

from tests.server.conftest import FrameReader, running_server
from tests.server.drivers import set_bits


def run(coro):
    return asyncio.run(coro)


def _count_writes(client) -> list:
    """Every blob ``client``'s transport is handed from now on."""
    writer = client._out.transport
    blobs: list = []
    real = writer.write

    def write(data):
        blobs.append(bytes(data))
        real(data)

    writer.write = write
    return blobs


def _counters(endpoint, *names) -> dict:
    seen = endpoint.stats()["counters"]
    return {name: seen.get(name, 0) for name in names}


async def _one_flow(client, data: bytes, pieces: int = 3) -> list:
    """OPEN + ``pieces`` DATA + FINISH, each call awaited in turn."""
    flow = await client.open_flow()
    step = -(-len(data) // pieces)
    for start in range(0, len(data), step):
        await flow.send(data[start : start + step])
    return await flow.finish()


# ----------------------------------------------------------------------
# (a) counts per flow
# ----------------------------------------------------------------------
def test_small_flow_is_one_write_one_read_one_reply():
    data, _truth = WorkloadGenerator(seed=5).stream(3)
    assert len(data) < 1 << 16
    expected = ContentBasedRouter().route(data)

    async def main():
        async with running_server() as server:
            async with ScanClient(*server.address) as client:
                await asyncio.sleep(0.05)  # the handshake's own traffic
                names = (
                    "server.rx.reads", "server.rx.frames",
                    "server.tx.writes", "server.tx.frames",
                )
                before = _counters(server, *names)
                blobs = _count_writes(client)
                for _ in range(3):
                    assert await _one_flow(client, data) == expected
                assert len(blobs) == 3  # one write per flow
                types = [
                    f.type for f in protocol.FrameDecoder().feed(blobs[0])
                ]
                # The three sends of one turn leave as one DATA frame.
                assert types == [
                    FrameType.OPEN_FLOW, FrameType.DATA, FrameType.FINISH_FLOW,
                ]
                after = _counters(server, *names)
                grown = {k: after[k] - before[k] for k in names}
                assert grown == {
                    "server.rx.reads": 3, "server.rx.frames": 9,
                    "server.tx.writes": 3, "server.tx.frames": 3,
                }

    run(main())


def test_placed_flows_are_one_write_each_way_and_none_at_the_proxy():
    """Through a proxy, a flow costs the proxy nothing: the client
    places a scan and a beam on the ring member itself. The whole scan
    leaves in one write to the member, a beam op in one, and the
    server answers each in one read and one write."""
    table = build_mask_table(xmlrpc(), synthetic_vocab(size=384, seed=7))
    data, _truth = WorkloadGenerator(seed=6).stream(3)
    expected = ContentBasedRouter().route(data)
    local = BeamMaskSession(table, 1)

    async def main():
        async with running_server(mask_tables=[table]) as server:
            proxy = ScanProxy([server.address], port=0)
            await proxy.start()
            try:
                async with ScanClient(*proxy.address) as client:
                    assert await _one_flow(client, data) == expected  # warm
                    beam = await client.open_beam_flow(table.vocab_hash, 1)
                    await asyncio.sleep(0.05)
                    names = ("rx.reads", "tx.writes")
                    before_p = _counters(
                        proxy, *(f"proxy.{n}" for n in names)
                    )
                    before_s = _counters(
                        server, *(f"server.{n}" for n in names)
                    )
                    blobs = _count_writes(client)
                    (dial,) = client._members.values()
                    direct = _count_writes(dial.result())
                    assert await _one_flow(client, data) == expected
                    token = set_bits(beam.rows[0])[0]
                    states, rows = await beam.advance([token])
                    local.advance([token])
                    assert (states, rows) == (local.states, local.masks())

                    def types(blob):
                        return [
                            f.type for f in protocol.FrameDecoder().feed(blob)
                        ]

                    # The scan, then the beam op: a write each, to the
                    # member; nothing to the proxy, nothing from it.
                    assert [types(b) for b in direct] == [
                        [FrameType.OPEN_FLOW, FrameType.DATA,
                         FrameType.FINISH_FLOW],
                        [FrameType.BATCH_ADVANCE],
                    ]
                    assert blobs == []
                    assert _counters(
                        proxy, *(f"proxy.{n}" for n in names)
                    ) == before_p
                    # The server: the scan's read and write, the op's.
                    after_s = _counters(
                        server, *(f"server.{n}" for n in names)
                    )
                    assert after_s["server.rx.reads"] == (
                        before_s["server.rx.reads"] + 2
                    )
                    assert after_s["server.tx.writes"] == (
                        before_s["server.tx.writes"] + 2
                    )
                    await beam.close()
            finally:
                await proxy.stop(drain=False)

    run(main())


# ----------------------------------------------------------------------
# (b) wire order
# ----------------------------------------------------------------------
def test_interleaved_flows_reach_the_wire_in_call_order():
    async def main():
        async with running_server() as server:
            async with ScanClient(*server.address) as client:
                blobs = _count_writes(client)
                a = await client.open_flow()
                b = await client.open_flow()
                calls = []
                for i in range(6):
                    flow = (a, b)[i % 2]
                    chunk = b"<x%d>" % i
                    calls.append((FrameType.DATA, flow.flow_id, chunk))
                    await flow.send(chunk)
                    if i == 2:
                        await asyncio.sleep(0)  # a turn ends mid-way
                await asyncio.gather(a.finish(), b.finish())
                wire = [
                    (f.type, *protocol.decode_data(f))
                    for f in protocol.FrameDecoder().feed(b"".join(blobs))
                    if f.type == FrameType.DATA
                ]
                assert wire == calls
                assert len(blobs) >= 2

    run(main())


def _data_frames(blobs: list) -> list:
    """(flow id, body) of every DATA frame in ``blobs``."""
    return [
        (flow_id, bytes(body))
        for frame in protocol.FrameDecoder().feed(b"".join(blobs))
        if frame.type == FrameType.DATA
        for flow_id, body in [protocol.decode_data(frame)]
    ]


def test_held_chunks_merge_per_flow_in_first_queued_order():
    """One turn's sends: a flow's consecutive chunks leave as one DATA
    frame, and a send to another flow settles what is held first."""
    streams = [WorkloadGenerator(seed=s).stream(4)[0] for s in (9, 10)]
    a, b = (
        [d[len(d) * i // 4 : len(d) * (i + 1) // 4] for i in range(4)]
        for d in streams
    )
    sends = [(0, a[0]), (0, a[1]), (1, b[0]), (0, a[2]), (1, b[1]),
             (1, b[2]), (1, b[3]), (0, a[3])]
    wire = [(0, a[0] + a[1]), (1, b[0]), (0, a[2]), (1, b[1] + b[2] + b[3]),
            (0, a[3])]

    async def main():
        async with running_server() as server:
            async with ScanClient(*server.address) as client:
                blobs = _count_writes(client)
                flows = [await client.open_flow() for _ in streams]
                for which, chunk in sends:
                    await flows[which].send(chunk)
                got = await asyncio.gather(*(f.finish() for f in flows))
                router = ContentBasedRouter()
                assert got == [router.route(d) for d in streams]
                ids = [f.flow_id for f in flows]
                assert _data_frames(blobs) == [
                    (ids[which], body) for which, body in wire
                ]

    run(main())


def test_held_flow_is_split_to_the_servers_frame_limit():
    data = WorkloadGenerator(seed=11).stream(220)[0]
    assert len(data) >= 40 << 10

    async def main():
        async with running_server(max_frame=4096) as server:
            async with ScanClient(*server.address) as client:
                assert client.server_max_frame == 4096
                blobs = _count_writes(client)
                got = await client.scan_stream(data)
                assert got == ContentBasedRouter().route(data)
                frames = _data_frames(blobs)
                assert b"".join(body for _id, body in frames) == data
                assert len(frames) == -(-len(data) // (4096 - 5))
                assert all(len(body) + 5 <= 4096 for _id, body in frames)
            assert server.stats()["counters"].get("server.errors.sent", 0) == 0

    run(main())


def test_held_flow_then_beam_op_answers_both():
    table = build_mask_table(xmlrpc(), synthetic_vocab(size=384, seed=7))
    data = WorkloadGenerator(seed=12).stream(3)[0]
    local = BeamMaskSession(table, 1)

    async def main():
        async with running_server(mask_tables=[table]) as server:
            async with ScanClient(*server.address) as client:
                beam = await client.open_beam_flow(table.vocab_hash, 1)
                flow = await client.open_flow()
                blobs = _count_writes(client)
                await flow.send(data[:100])
                await flow.send(data[100:])
                token = set_bits(beam.rows[0])[0]
                states, rows = await beam.advance([token])
                local.advance([token])
                assert (states, rows) == (local.states, local.masks())
                # The held DATA left ahead of the beam op, in its write.
                types = [f.type for f in protocol.FrameDecoder().feed(blobs[0])]
                assert types == [
                    FrameType.OPEN_FLOW, FrameType.DATA, FrameType.BATCH_ADVANCE,
                ]
                assert await flow.finish() == ContentBasedRouter().route(data)
                await beam.close()

    run(main())


# ----------------------------------------------------------------------
# (c) backpressure
# ----------------------------------------------------------------------
def test_sender_is_bounded_and_suspends_against_a_stalled_peer():
    """A peer that never reads: at most ``high_water`` bytes ever wait
    outside the transport, and ``send()`` suspends instead of
    buffering 8 MiB."""

    async def main():
        release = asyncio.Event()

        async def stalled(reader, writer):
            writer.write(protocol.encode_hello())
            await release.wait()  # never read a byte
            writer.close()

        listener = await asyncio.start_server(stalled, "127.0.0.1", 0)
        port = listener.sockets[0].getsockname()[1]
        client = ScanClient("127.0.0.1", port)
        await client.connect()
        out = client._out
        flow = await client.open_flow()
        chunk = b"x" * 16384
        sent = 0
        peak = 0

        async def pump():
            nonlocal sent, peak
            for _ in range(512):  # 8 MiB
                await flow.send(chunk)
                sent += len(chunk)
                peak = max(peak, out._queued)

        task = asyncio.ensure_future(pump())
        await asyncio.sleep(0.5)
        assert not task.done()  # suspended in send()
        stuck_at = sent
        await asyncio.sleep(0.2)
        assert sent == stuck_at < 8 << 20
        assert peak < out.high_water
        assert out._queued < out.high_water
        task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await task
        release.set()
        client._out.transport.abort()
        listener.close()

    run(main())


# ----------------------------------------------------------------------
# (d) close and connection failure
# ----------------------------------------------------------------------
def test_close_flushes_goodbye_before_waiting():
    async def main():
        seen = []
        got_goodbye = asyncio.Event()

        async def peer(reader, writer):
            frames = FrameReader(reader)
            writer.write(protocol.encode_hello())
            while True:
                frame = await frames.frame()
                if frame is None:
                    break
                seen.append(frame.type)
                if frame.type == FrameType.GOODBYE:
                    got_goodbye.set()
                    writer.write(protocol.encode_goodbye())
            writer.close()

        listener = await asyncio.start_server(peer, "127.0.0.1", 0)
        port = listener.sockets[0].getsockname()[1]
        client = ScanClient("127.0.0.1", port)
        await client.connect()
        flow = await client.open_flow()
        await flow.send(b"<a>")  # still queued when close() is called
        started = asyncio.get_running_loop().time()
        await client.close()
        # The GOODBYE left before close() waited for the peer's, so
        # the wait ended on the reply, not on its 2 s timeout.
        assert asyncio.get_running_loop().time() - started < 1.0
        await asyncio.wait_for(got_goodbye.wait(), 2.0)
        assert seen == [
            FrameType.HELLO, FrameType.OPEN_FLOW, FrameType.DATA,
            FrameType.GOODBYE,
        ]
        listener.close()

    run(main())


def test_send_after_the_connection_died_raises_the_stored_error():
    async def main():
        async def peer(reader, writer):
            writer.write(protocol.encode_hello())
            await reader.read(1)
            writer.transport.abort()

        listener = await asyncio.start_server(peer, "127.0.0.1", 0)
        port = listener.sockets[0].getsockname()[1]
        client = ScanClient("127.0.0.1", port)
        await client.connect()
        flow = await client.open_flow()
        with pytest.raises((ConnectionError, protocol.ProtocolError)):
            await flow.finish(timeout=2.0)
        assert not client.connected
        stored = client._conn_error
        assert stored is not None
        blobs = _count_writes(client)
        for _ in range(2):
            with pytest.raises(type(stored)) as info:
                await flow.send(b"late")
            assert info.value is stored
        await asyncio.sleep(0.01)  # a turn ends: nothing to write
        assert blobs == []
        await client.close()
        assert blobs == []  # no GOODBYE at a dead peer either
        listener.close()

    run(main())


def test_nothing_queued_is_written_to_a_closed_transport():
    async def main():
        async with running_server() as server:
            client = ScanClient(*server.address)
            await client.connect()
            out = client._out
            blobs = _count_writes(client)
            flow = await client.open_flow()  # queued, turn not over
            out.closed = True  # what a failed write leaves behind
            await asyncio.sleep(0.01)
            assert blobs == [] and out._queued == 0
            await flow.send(b"<a>")
            out.push()
            assert blobs == []
            await client.close()

    run(main())
