"""The corked wire: one ``transport.write`` per event-loop turn on
every hop (``protocol.FramedProtocol`` — client, proxy and server write
through the same one), bounded by the 64 KiB high-water mark.

What is pinned here are counts that repeat exactly — writes and reads
per flow, read off the ``<role>.rx.reads`` / ``<role>.tx.writes``
counters and off the client's transport — plus wire order, the
backpressure bound and what happens to queued frames when a connection
closes or dies.
"""

import asyncio
import contextlib

import pytest

from repro.apps.xmlrpc import ContentBasedRouter, WorkloadGenerator
from repro.server import ScanClient, ScanProxy, protocol
from repro.server.protocol import FrameType

from tests.server.conftest import FrameReader, running_server


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
                assert types == [
                    FrameType.OPEN_FLOW, FrameType.DATA, FrameType.DATA,
                    FrameType.DATA, FrameType.FINISH_FLOW,
                ]
                after = _counters(server, *names)
                grown = {k: after[k] - before[k] for k in names}
                assert grown == {
                    "server.rx.reads": 3, "server.rx.frames": 15,
                    "server.tx.writes": 3, "server.tx.frames": 3,
                }

    run(main())


def test_proxy_adds_one_write_per_direction():
    data, _truth = WorkloadGenerator(seed=6).stream(3)
    expected = ContentBasedRouter().route(data)

    async def main():
        async with running_server() as server:
            proxy = ScanProxy([server.address], port=0)
            await proxy.start()
            try:
                async with ScanClient(*proxy.address) as client:
                    assert await _one_flow(client, data) == expected  # warm
                    await asyncio.sleep(0.05)
                    names = ("rx.reads", "tx.writes")
                    before_p = _counters(
                        proxy, *(f"proxy.{n}" for n in names)
                    )
                    before_s = _counters(
                        server, *(f"server.{n}" for n in names)
                    )
                    blobs = _count_writes(client)
                    (backend,) = proxy.backends.values()
                    relayed = _count_writes(backend._client)
                    assert await _one_flow(client, data) == expected
                    assert len(blobs) == 1
                    # Towards the backend: the whole flow in one write,
                    # the same five frames the client sent.
                    assert len(relayed) == 1
                    assert len(
                        protocol.FrameDecoder().feed(relayed[0])
                    ) == 5
                    # Towards the client: one write (counted on the
                    # proxy's front; the backend client is not a
                    # FramedEndpoint connection).
                    after_p = _counters(
                        proxy, *(f"proxy.{n}" for n in names)
                    )
                    assert after_p["proxy.rx.reads"] == (
                        before_p["proxy.rx.reads"] + 1
                    )
                    assert after_p["proxy.tx.writes"] == (
                        before_p["proxy.tx.writes"] + 1
                    )
                    after_s = _counters(
                        server, *(f"server.{n}" for n in names)
                    )
                    assert after_s["server.rx.reads"] == (
                        before_s["server.rx.reads"] + 1
                    )
                    assert after_s["server.tx.writes"] == (
                        before_s["server.tx.writes"] + 1
                    )
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
