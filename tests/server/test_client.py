"""Client-library semantics: connect retry/backoff, request timeouts,
and failure propagation onto pending flows."""

import asyncio
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
