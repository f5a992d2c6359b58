"""Client-library semantics: connect retry/backoff, request timeouts
(one deadline timer per connection), failure propagation onto pending
flows, and the loop handles a short flow costs."""

import asyncio
import contextlib
import time

import pytest

from repro.server import ConnectFailed, ScanClient

from tests.server.conftest import FrameReader, running_server


def run(coro):
    return asyncio.run(coro)


def _free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# ----------------------------------------------------------------------
def test_connect_retries_until_server_appears():
    """The client dials before the server binds; retry/backoff rides
    over the gap — start order doesn't matter."""

    async def main():
        from repro.server import ScanServer

        port = _free_port()
        server = ScanServer(port=port)

        async def late_start():
            await asyncio.sleep(0.2)
            await server.start()

        starter = asyncio.ensure_future(late_start())
        client = ScanClient(
            "127.0.0.1", port,
            connect_retries=20, retry_backoff=0.05,
        )
        await client.connect()
        assert client.connected
        got = await client.scan_stream(
            b"<methodCall><methodName>buy</methodName>"
            b"<params></params></methodCall> "
        )
        assert [m.port for m in got] == [1]
        await client.close()
        await starter
        await server.stop(drain=False)

    run(main())


def test_connect_fails_after_retry_budget():
    async def main():
        client = ScanClient(
            "127.0.0.1", _free_port(),
            connect_retries=3, retry_backoff=0.01,
        )
        started = time.monotonic()
        with pytest.raises(ConnectFailed, match="3 attempts"):
            await client.connect()
        # Exponential backoff actually waited between attempts.
        assert time.monotonic() - started >= 0.01 + 0.02

    run(main())


def test_connect_backoff_is_capped_and_jittered(monkeypatch):
    """Doubling stops at ``max_backoff`` and every sleep carries
    ±25 % jitter — a flapping backend can't push a client into
    minutes-long lockstep sleeps."""

    async def main():
        sleeps = []
        real_sleep = asyncio.sleep

        async def fake_sleep(delay, *args, **kwargs):
            sleeps.append(delay)
            await real_sleep(0)

        monkeypatch.setattr(asyncio, "sleep", fake_sleep)
        client = ScanClient(
            "127.0.0.1", _free_port(),
            connect_retries=8, retry_backoff=0.05, max_backoff=0.2,
            connect_timeout=0.5,
        )
        with pytest.raises(ConnectFailed, match="8 attempts"):
            await client.connect()
        assert len(sleeps) == 8
        # Nominal schedule 0.05, 0.1, 0.2, 0.2, ... — every sleep is
        # within jitter range of its nominal value, never above the
        # cap's +25 % ceiling.
        assert max(sleeps) <= 0.2 * 1.25 + 1e-9
        assert sleeps[0] >= 0.05 * 0.75 - 1e-9
        for capped in sleeps[2:]:
            assert 0.2 * 0.75 - 1e-9 <= capped <= 0.2 * 1.25 + 1e-9

    run(main())


def test_finish_times_out_when_no_result_arrives():
    """A FINISH_FLOW the server never answers (unopened flow id is
    answered with ERROR; here we silence it by talking to a raw
    listener that says HELLO then nothing)."""

    async def main():
        async def mute_server(reader, writer):
            from repro.server import protocol

            frames = FrameReader(reader)
            await frames.frame()  # client HELLO
            writer.write(protocol.encode_hello())
            await writer.drain()
            while await frames.frame() is not None:
                pass  # swallow everything, answer nothing
            writer.close()

        listener = await asyncio.start_server(
            mute_server, "127.0.0.1", 0
        )
        port = listener.sockets[0].getsockname()[1]
        client = ScanClient("127.0.0.1", port, request_timeout=0.2)
        await client.connect()
        flow = await client.open_flow()
        await flow.send(b"data")
        with pytest.raises(TimeoutError, match="no final RESULT"):
            await flow.finish()
        await client.close()
        listener.close()
        await listener.wait_closed()

    run(main())


def test_server_vanishing_fails_pending_flows():
    async def main():
        async with running_server() as server:
            host, port = server.address
            client = ScanClient(host, port)
            await client.connect()
            flow = await client.open_flow()
            await flow.send(b"<methodCall><methodName>bu")
            # Cut every connection without drain.
            for conn in list(server._connections.values()):
                conn.transport.abort()
            with pytest.raises((ConnectionError, OSError)):
                await flow.finish(timeout=5.0)
            await client.close()

    run(main())


def test_concurrent_flows_on_one_connection_interleave():
    """Many flows multiplexed on one connection each get exactly their
    own results (ids don't cross wires)."""

    async def main():
        from repro.apps.xmlrpc import ContentBasedRouter, MethodCall

        router = ContentBasedRouter()
        payloads = {
            name: MethodCall(name).encode() + b" "
            for name in ("buy", "sell", "deposit", "withdraw")
        }
        expected = {n: router.route(p) for n, p in payloads.items()}
        async with running_server() as server:
            host, port = server.address
            async with ScanClient(host, port) as client:
                results = await asyncio.gather(
                    *(
                        client.scan_stream(p, chunk_size=3)
                        for p in payloads.values()
                    )
                )
        assert dict(zip(payloads, results)) == expected

    run(main())


def test_refused_handshake_leaves_the_client_unconnected(monkeypatch):
    """A server that answers HELLO with ERROR(VERSION_MISMATCH): connect()
    raises the ServerFault at once, and the client is left closed — not
    ``connected``, and a flow opened next fails at once instead of
    waiting out its request timeout."""
    from repro.server import ServerFault, client as client_module, protocol

    monkeypatch.setattr(client_module, "PROTOCOL_VERSION", 2)

    async def main():
        async with running_server() as server:
            client = ScanClient(
                *server.address, connect_retries=3, request_timeout=2.0
            )
            started = time.monotonic()
            with pytest.raises(ServerFault) as info:
                await client.connect()
            assert info.value.code == protocol.ErrorCode.VERSION_MISMATCH
            assert time.monotonic() - started < 1.0  # no retries
            assert not client.connected
            started = time.monotonic()
            with pytest.raises(ConnectionError):
                flow = await client.open_flow()
                await flow.finish()
            assert time.monotonic() - started < 0.5
            await client.close()

    run(main())


# ----------------------------------------------------------------------
# one request deadline per connection
# ----------------------------------------------------------------------
async def _mute_listener():
    """A listener that says HELLO, then swallows every frame and
    answers nothing: requests to it only ever end at their deadline
    (or by a reply a test hands the client itself)."""
    from repro.server import protocol

    async def mute(reader, writer):
        frames = FrameReader(reader)
        await frames.frame()  # client HELLO
        writer.write(protocol.encode_hello())
        await writer.drain()
        while await frames.frame() is not None:
            pass
        writer.close()

    return await asyncio.start_server(mute, "127.0.0.1", 0)


def _beam(client):
    """A beam flow opened on ``client`` without its OPEN_BEAM's reply
    (the mute listener never sends one)."""
    from repro.server.client import BeamFlow

    flow = BeamFlow(client, client.allocate_flow_id())
    client._table.open(flow)
    return flow


def _masks(flow_id: int, state: int) -> bytes:
    """One MASKS frame: a single full lane of two bytes in ``state``."""
    from repro.server import protocol

    return protocol.encode_masks(flow_id, 2, [(state, 0, b"\x01\x02")])


def test_short_deadline_behind_a_long_one_fails_on_time():
    """A ``finish(timeout=0.1)`` queued behind a beam request with 30 s
    left fails at its own deadline, not at the earlier request's: the
    connection's one timer moves forward for it. The beam request is
    still pending afterwards, and both count in ``timeouts`` only once
    they expire."""

    async def main():
        listener = await _mute_listener()
        port = listener.sockets[0].getsockname()[1]
        async with ScanClient("127.0.0.1", port) as client:
            beam = _beam(client)
            slow = asyncio.ensure_future(beam.advance([1], timeout=30.0))
            await asyncio.sleep(0.05)
            flow = await client.open_flow()
            await flow.send(b"<methodCall>")
            started = time.monotonic()
            with pytest.raises(TimeoutError, match="no final RESULT"):
                await flow.finish(timeout=0.1)
            assert 0.09 <= time.monotonic() - started < 2.0
            assert not slow.done()
            assert client.timeouts == 1
            slow.cancel()
        listener.close()
        await listener.wait_closed()

    run(main())


def test_late_beam_reply_still_pops_its_timed_out_request():
    """A MASKS reply that arrives after its request timed out is
    matched to that request (FIFO), so the next reply resolves the
    next request, not the dead one."""

    async def main():
        listener = await _mute_listener()
        port = listener.sockets[0].getsockname()[1]
        async with ScanClient("127.0.0.1", port) as client:
            beam = _beam(client)
            first = asyncio.ensure_future(beam.advance([1], timeout=0.05))
            await asyncio.sleep(0)
            second = asyncio.ensure_future(beam.advance([2], timeout=30.0))
            with pytest.raises(TimeoutError, match="no MASKS reply"):
                await first
            link = client._out
            link.data_received(_masks(beam.flow_id, 7))  # late: the first's
            await asyncio.sleep(0)
            assert not second.done()
            link.data_received(_masks(beam.flow_id, 9))
            states, rows = await asyncio.wait_for(second, 1.0)
            assert states == (9,) and rows == [b"\x01\x02"]
            assert client.timeouts == 1
        listener.close()
        await listener.wait_closed()

    run(main())


def _count_handles(loop) -> dict:
    """Count the handles ``loop`` is asked for from now on
    (``call_later`` is counted as the ``call_at`` it makes)."""
    counts = {"call_soon": 0, "call_at": 0}
    for name in counts:
        real = getattr(loop, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        setattr(loop, name, counted)
    return counts


def test_answered_requests_share_one_deadline_timer():
    """2 000 requests answered on one connection schedule a constant
    number of timers, not one per request: requests' deadlines only
    ever move the connection's timer earlier, and every one of these
    comes later than the first."""

    async def main():
        payload = (
            b"<methodCall><methodName>buy</methodName>"
            b"<params></params></methodCall> "
        )
        async with running_server() as server:
            async with ScanClient(*server.address) as client:
                await client.scan_stream(payload)
                counts = _count_handles(asyncio.get_running_loop())
                for _ in range(2000):
                    flow = await client.open_flow()
                    await flow.send(payload)
                    assert [m.port for m in await flow.finish()] == [1]
                assert counts["call_at"] <= 2
                assert client.timeouts == 0
                assert not client._waits  # nothing outlives its reply

    run(main())


@contextlib.contextmanager
def _server_thread(**kwargs):
    """A ScanServer on its own loop in a thread, so that the loop of
    the test sees only the client's handles; yields its address."""
    import threading

    from repro.server import ScanServer

    ready = threading.Event()
    box: dict = {}

    async def serve():
        server = ScanServer(port=0, **kwargs)
        await server.start()
        box["loop"] = asyncio.get_running_loop()
        box["server"] = server
        ready.set()
        await server.serve_forever()

    thread = threading.Thread(target=asyncio.run, args=(serve(),))
    thread.start()
    try:
        assert ready.wait(30.0)
        yield box["server"].address
    finally:
        stop = asyncio.run_coroutine_threadsafe(
            box["server"].stop(drain=False), box["loop"]
        )
        stop.result(30.0)
        thread.join(30.0)


def test_short_flow_schedules_two_loop_handles():
    """A short flow over real loopback costs its client two loop
    handles: the turn-end write its OPEN_FLOW schedules (called off by
    ``finish()``'s own write) and the wakeup of the caller its final
    RESULT resolves. No timer per request, no pacing task, no second
    handle for the same write."""

    async def main(address):
        from repro.apps.xmlrpc import WorkloadGenerator

        data, _truth = WorkloadGenerator(seed=3).stream(2)
        chunks = [data[i : i + 256] for i in range(0, len(data), 256)]
        async with ScanClient(*address) as client:
            await client.scan_stream(data)  # the first deadline's timer
            counts = _count_handles(asyncio.get_running_loop())
            flows = 200
            for _ in range(flows):
                flow = await client.open_flow()
                for chunk in chunks:
                    await flow.send(chunk)
                await flow.finish()
            assert counts["call_at"] <= 1
            assert counts["call_soon"] <= 2 * flows

    with _server_thread() as address:
        run(main(address))


def test_explicit_push_calls_off_the_turn_end_write():
    """``push()`` writes now and cancels the turn-end push the queue
    scheduled, so the loop does not run a second, empty one."""
    from repro.server import protocol

    async def main():
        async with running_server() as server:
            async with ScanClient(*server.address) as client:
                link = client._out
                link.queue(protocol.encode_open_flow(1))
                turn_end = link._turn_end
                assert turn_end is not None and not turn_end.cancelled()
                link.push()
                assert turn_end.cancelled() and link._turn_end is None

    run(main())


def test_a_placed_flows_deadline_outlives_the_member_it_moved_off():
    """A placed flow's deadline is its placer's: the flow's ``finish``
    still fails on time after it moved off a lost member whose link was
    then closed; a client closed with a request pending leaves no timer
    behind."""
    from repro.server.ring import HashRing

    async def main():
        listeners = [await _mute_listener() for _ in range(2)]
        names = [
            f"127.0.0.1:{listener.sockets[0].getsockname()[1]}"
            for listener in listeners
        ]
        placer = ScanClient(request_timeout=30.0)
        placer._ring = HashRing(names)
        flow = await placer.open_flow()
        await flow.send(b"<methodCall>")
        finish = asyncio.ensure_future(flow.finish(timeout=2.0))
        await asyncio.sleep(0.05)
        first = flow.member
        placer._live(first)._out.transport.abort()  # the member is lost
        for _ in range(150):  # the flow moves to the other member
            await asyncio.sleep(0.01)
            if flow.member != first:
                break
        assert flow.member != first and not finish.done()
        await placer.unlink(first)  # and the dead link is closed
        with pytest.raises(TimeoutError, match="no final RESULT"):
            await asyncio.wait_for(finish, 5.0)
        assert placer.timeouts == 1
        flow = await placer.open_flow()
        finish = asyncio.ensure_future(flow.finish())  # 30 s to run
        await asyncio.sleep(0.05)
        assert placer._deadline is not None
        await placer.close()
        assert placer._deadline is None
        with pytest.raises(ConnectionError):
            await finish
        for listener in listeners:
            listener.close()
            await listener.wait_closed()

    run(main())
