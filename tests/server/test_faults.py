"""Robustness under fault: idle-timeout reaping, oversized-frame
rejection, slow-consumer backpressure (bounded server memory), pool
backpressure pauses, and graceful drain delivering in-flight RESULTs."""

import asyncio
import time

from repro.server import ScanClient, ServerFault, protocol
from repro.server.protocol import ErrorCode, FrameType

from tests.server.conftest import FrameReader, running_server


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# idle timeout
# ----------------------------------------------------------------------
def test_idle_connection_reaped_with_error_frame():
    async def main():
        async with running_server(idle_timeout=0.15) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            frames = FrameReader(reader)
            writer.write(protocol.encode_hello())
            await writer.drain()
            frame = await frames.frame()  # server HELLO
            assert frame.type == FrameType.HELLO
            # ... then send nothing: the server must reap us.
            frame = await asyncio.wait_for(frames.frame(), 2.0)
            assert frame.type == FrameType.ERROR
            flow, code, message = protocol.decode_error(frame)
            assert code == ErrorCode.IDLE_TIMEOUT
            assert flow == protocol.CONNECTION_FLOW
            assert await asyncio.wait_for(frames.frame(), 2.0) is None
            writer.close()
            assert server.stats()["counters"]["server.timeouts.idle"] == 1

    run(main())


def test_idle_timeout_discards_flow_state():
    async def main():
        async with running_server(idle_timeout=0.15) as server:
            host, port = server.address
            client = ScanClient(host, port)
            await client.connect()
            flow = await client.open_flow()
            await flow.send(b"<methodCall><methodName>bu")
            await asyncio.sleep(0.5)  # idle past the limit
            assert not server._connections  # reaped server-side
            await client.close()

    run(main())


def test_busy_connection_is_not_reaped():
    """The deadline bounds the wait for a frame, not the time spent
    handling one: a connection whose handler is busy for longer than
    ``idle_timeout`` (here: ``_op`` waits in a coroutine on the
    connection's frame path) keeps its connection."""

    async def main():
        async with running_server(idle_timeout=0.15) as server:
            release = asyncio.Event()
            real_op = server._op

            def slow_op(conn, flow, frame):
                async def held():
                    await release.wait()
                    real_op(conn, flow, frame)

                conn.run(held())

            server._op = slow_op
            async with ScanClient(*server.address) as client:
                flow = await client.open_flow()
                await flow.send(b"<methodCall>")
                finishing = asyncio.ensure_future(flow.finish(timeout=5.0))
                await asyncio.sleep(0.5)  # > 3 idle limits, mid-handling
                assert len(server._connections) == 1
                release.set()
                assert await finishing == []
            counters = server.stats()["counters"]
            assert counters.get("server.timeouts.idle", 0) == 0

    run(main())


def test_dribbled_frame_counts_as_idle():
    """A byte every ``idle_timeout / 2`` that never completes a frame
    does not push the deadline out: the connection is reaped one limit
    after the last complete frame."""

    async def main():
        async with running_server(idle_timeout=0.2) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            frames = FrameReader(reader)
            writer.write(protocol.encode_hello())
            await writer.drain()
            assert (await frames.frame()).type == FrameType.HELLO

            async def dribble():
                for byte in protocol.encode_data(1, b"x" * 64):
                    writer.write(bytes([byte]))
                    await asyncio.sleep(0.1)

            task = asyncio.ensure_future(dribble())
            started = time.monotonic()
            frame = await asyncio.wait_for(frames.frame(), 2.0)
            assert time.monotonic() - started < 1.0
            assert frame.type == FrameType.ERROR
            _flow, code, _message = protocol.decode_error(frame)
            assert code == ErrorCode.IDLE_TIMEOUT
            assert await asyncio.wait_for(frames.frame(), 2.0) is None
            task.cancel()
            writer.close()
            counters = server.stats()["counters"]
            assert counters["server.timeouts.idle"] == 1
            # The cut frame is the deadline's doing, not a protocol error.
            assert counters.get("server.errors.protocol", 0) == 0
            assert not server._connections

    run(main())


# ----------------------------------------------------------------------
# oversized frames
# ----------------------------------------------------------------------
def test_oversized_frame_rejected_and_connection_closed():
    async def main():
        async with running_server(max_frame=4096) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            frames = FrameReader(reader)
            writer.write(protocol.encode_hello())
            await writer.drain()
            await frames.frame()  # server HELLO
            writer.write(protocol.encode_open_flow(1))
            writer.write(protocol.encode_data(1, b"x" * 8192))
            await writer.drain()
            frame = await asyncio.wait_for(frames.frame(), 2.0)
            assert frame.type == FrameType.ERROR
            _flow, code, _msg = protocol.decode_error(frame)
            assert code == ErrorCode.FRAME_TOO_LARGE
            assert await asyncio.wait_for(frames.frame(), 2.0) is None
            writer.close()

    run(main())


def test_end_of_stream_inside_a_frame_is_a_protocol_error():
    async def main():
        async with running_server() as server:
            reader, writer = await asyncio.open_connection(*server.address)
            frames = FrameReader(reader)
            writer.write(protocol.encode_hello())
            await frames.frame()  # server HELLO
            writer.write(protocol.encode_data(1, b"x" * 64)[:20])
            writer.write_eof()
            frame = await asyncio.wait_for(frames.frame(), 2.0)
            _flow, code, message = protocol.decode_error(frame)
            assert code == ErrorCode.BAD_FRAME and "mid-frame" in message
            assert await asyncio.wait_for(frames.frame(), 2.0) is None
            writer.close()

    run(main())


def test_client_splits_data_to_server_frame_limit(streams, expected):
    """A client talking to a small-frame server transparently splits
    chunks, so large sends still round-trip correctly."""

    async def main():
        async with running_server(max_frame=512) as server:
            host, port = server.address
            async with ScanClient(host, port) as client:
                assert client.server_max_frame == 512
                got = await client.scan_stream(
                    streams["flow-0"], chunk_size=100_000
                )
        assert got == expected["flow-0"]

    run(main())


# ----------------------------------------------------------------------
# protocol discipline
# ----------------------------------------------------------------------
def test_version_mismatch_is_refused():
    async def main():
        async with running_server() as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            frames = FrameReader(reader)
            writer.write(protocol.encode_hello(version=99))
            await writer.drain()
            frame = await asyncio.wait_for(frames.frame(), 2.0)
            assert frame.type == FrameType.ERROR
            _f, code, _m = protocol.decode_error(frame)
            assert code == ErrorCode.VERSION_MISMATCH
            writer.close()

    run(main())


def test_v2_hello_gets_version_mismatch():
    """A v2 peer (one that could still send the retired single-lane
    mask frames, and would send its scans through a proxy) is refused
    at HELLO with a typed VERSION_MISMATCH, never mid-flow."""
    assert protocol.PROTOCOL_VERSION == 4

    async def main():
        async with running_server() as server:
            reader, writer = await asyncio.open_connection(*server.address)
            frames = FrameReader(reader)
            writer.write(protocol.encode_hello(version=2))
            await writer.drain()
            frame = await asyncio.wait_for(frames.frame(), 2.0)
            assert frame.type == FrameType.ERROR
            _f, code, message = protocol.decode_error(frame)
            assert code == ErrorCode.VERSION_MISMATCH
            assert "v4" in message and "v2" in message
            assert await asyncio.wait_for(frames.frame(), 2.0) is None
            writer.close()

    run(main())


def test_data_for_unopened_flow_is_flow_error():
    async def main():
        async with running_server() as server:
            host, port = server.address
            client = ScanClient(host, port)
            await client.connect()
            # Bypass open_flow: hand-craft DATA for an unknown id.
            await client._send(protocol.encode_data(42, b"zzz"))
            flow = await client.open_flow()
            got = await flow.finish()  # connection still healthy
            assert got == []
            await client.close()

    run(main())


def test_duplicate_open_releases_the_flow():
    """Regression: after ERROR(DUPLICATE_FLOW) the client drops the
    flow, so the server must too — a flow it kept would hold a session,
    a quota slot and its generation, and make a graceful stop wait out
    its whole drain timeout for a FINISH_FLOW that can never come."""

    async def main():
        async with running_server() as server:
            reader, writer = await asyncio.open_connection(*server.address)
            frames = FrameReader(reader)
            writer.write(
                protocol.encode_hello()
                + protocol.encode_open_flow(7)
                + protocol.encode_open_flow(7)
            )
            await writer.drain()
            await frames.frame()  # server HELLO
            frame = await asyncio.wait_for(frames.frame(), 2.0)
            flow_id, code, _detail = protocol.decode_error(frame)
            assert (flow_id, code) == (7, ErrorCode.DUPLICATE_FLOW)
            assert server._tenant_open("default") == 0
            started = time.monotonic()
            await server.stop(drain=True, timeout=5)
            assert time.monotonic() - started < 0.5
            writer.close()

    run(main())


# ----------------------------------------------------------------------
# backpressure
# ----------------------------------------------------------------------
def test_slow_consumer_does_not_grow_server_memory(streams):
    """A client that stops reading RESULT frames suspends the server's
    writer at the transport buffer bound — the handler stops reading,
    and no unbounded result queue forms server-side."""

    async def main():
        # Results are spans now, ~24 bytes a message: a low bound and
        # a longer stream keep the writer reaching it.
        high_water = 1024
        async with running_server(write_high_water=high_water) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            frames = FrameReader(reader)
            writer.write(protocol.encode_hello())
            await writer.drain()
            await frames.frame()  # server HELLO
            writer.write(protocol.encode_open_flow(1))
            # Pump many result-producing messages without ever reading.
            data = streams["flow-0"] * 64
            for start in range(0, len(data), 1024):
                writer.write(
                    protocol.encode_data(1, data[start : start + 1024])
                )
                await writer.drain()
                if server.stats()["counters"]["server.tx.bytes"] > high_water:
                    break
            await asyncio.sleep(0.3)
            # The server connection's outbound buffer is capped at the
            # transport bound (plus at most one in-flight frame).
            conns = list(server._connections.values())
            assert conns, "connection should still be alive (paused)"
            buffered = conns[0].transport.get_write_buffer_size()
            assert buffered <= high_water + protocol.DEFAULT_MAX_FRAME
            # Start consuming: everything completes normally.
            writer.write(protocol.encode_finish_flow(1))
            await writer.drain()
            final = None
            while final is None:
                frame = await asyncio.wait_for(frames.frame(), 5.0)
                assert frame.type == FrameType.RESULT
                _flow, is_final, _items = protocol.decode_result(frame)
                final = True if is_final else None
            writer.close()

    run(main())


# ----------------------------------------------------------------------
# graceful drain
# ----------------------------------------------------------------------
def test_graceful_drain_delivers_inflight_results(streams, expected):
    """stop(drain=True) with FINISH_FLOWs in flight: every final
    RESULT frame arrives before the close."""

    async def main():
        from repro.server import ScanServer

        server = ScanServer(port=0)
        await server.start()
        host, port = server.address
        client = ScanClient(host, port)
        await client.connect()
        flows = {}
        for name, data in streams.items():
            flow = await client.open_flow()
            await flow.send(data)
            flows[name] = flow
        finishes = {
            name: asyncio.ensure_future(flow.finish())
            for name, flow in flows.items()
        }
        # Wait until the server has *accepted* every frame (HELLO +
        # 3 per flow) — flows still unread when drain starts may
        # legitimately be refused with DRAINING instead.
        while (
            server.stats()["counters"].get("server.rx.frames", 0)
            < 1 + 3 * len(flows)
        ):
            await asyncio.sleep(0.001)
        await server.stop(drain=True, timeout=30.0)
        got = {name: await fut for name, fut in finishes.items()}
        assert got == expected
        await client.close()

    run(main())


def test_drain_rejects_new_flows_but_completes_open_ones(
    streams, expected
):
    """During drain, OPEN_FLOW is refused with DRAINING, while a flow
    opened beforehand still streams to completion."""

    async def main():
        from repro.server import ScanServer

        server = ScanServer(port=0)
        await server.start()
        host, port = server.address
        client = ScanClient(host, port)
        await client.connect()
        flow = await client.open_flow()
        await flow.send(streams["flow-0"][:100])
        # The flow must be accepted *before* the drain begins.
        while not server.stats()["counters"].get("server.flows.opened"):
            await asyncio.sleep(0.001)
        stopper = asyncio.ensure_future(
            server.stop(drain=True, timeout=10.0)
        )
        await asyncio.sleep(0.05)
        # New work is refused...
        refused = await client.open_flow()
        try:
            await refused.finish(timeout=2.0)
            raise AssertionError("expected ServerFault(DRAINING)")
        except ServerFault as fault:
            assert fault.code == ErrorCode.DRAINING
        # ... while the pre-drain flow finishes exactly.
        await flow.send(streams["flow-0"][100:])
        got = await flow.finish(timeout=5.0)
        assert got == expected["flow-0"]
        await stopper
        await client.close()

    run(main())


def test_drain_waits_for_inflight_mask_op():
    """Regression: a BATCH_ADVANCE whose handling waits (a coroutine on
    the connection's frame path) must get its one reply out before
    GOODBYE — decode ops were invisible to the drain accounting and a
    stop(drain=True) could cut the connection mid-op. Shown on a
    single-lane decode."""

    async def main():
        from repro.apps.structgen import build_mask_table, synthetic_vocab
        from repro.grammar.examples import xmlrpc

        table = build_mask_table(xmlrpc(), synthetic_vocab(size=384, seed=7))
        async with running_server(mask_tables=[table]) as server:
            host, port = server.address
            client = ScanClient(host, port)
            await client.connect()
            flow = await client.open_beam_flow(table.vocab_hash, 1)
            token = next(
                t for t in range(384) if flow.rows[0][t // 8] >> (t % 8) & 1
            )

            # The next op stalls on the connection's frame path until
            # we release it.
            real_op = server._op
            stalled, release = asyncio.Event(), asyncio.Event()

            def stalling_op(conn, flow, frame):
                async def held():
                    stalled.set()
                    await release.wait()
                    real_op(conn, flow, frame)

                conn.run(held())

            server._op = stalling_op
            reply = asyncio.ensure_future(flow.advance([token]))
            await stalled.wait()

            stopper = asyncio.ensure_future(
                server.stop(drain=True, timeout=10.0)
            )
            # Well past the 50 ms rx-quiescence window: only the op
            # accounting can be holding the drain open now.
            await asyncio.sleep(0.15)
            assert not stopper.done(), "drain cut an in-flight mask op"

            release.set()
            (state,), (row,) = await reply  # the reply made it out
            assert row == bytes(table.mask_row(state))
            await stopper
            await client.close()

    run(main())
