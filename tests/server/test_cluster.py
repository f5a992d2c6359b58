"""The cluster tier: consistent-hash ring and the ScanProxy.

Ring properties (determinism, minimal remap on membership change),
backend-spec parsing, and the cluster's end-to-end contract: scan and
beam flows (width 1 included), placed by the client on the ring the
proxy hands it, are byte-for-byte identical to flows against a single
server, and not one of their frames crosses the proxy; the client
follows the ring the proxy pushes, however long its proxy connection
idles; the aggregated admin endpoint merges backend expositions under
``backend="host:port"`` labels and shows the ring. That the protocol
fault paths reply exactly as a bare :class:`~repro.server.ScanServer`
would is ``test_conformance.py``'s subject.
"""

import asyncio
import contextlib
import json

import pytest

from repro.apps.structgen import MaskSession, build_mask_table, synthetic_vocab
from repro.apps.xmlrpc import ContentBasedRouter, MethodCall, WorkloadGenerator
from repro.grammar.examples import xmlrpc
from repro.server import (
    BackendSpec,
    HashRing,
    ScanClient,
    ScanProxy,
    ScanServer,
    parse_backend,
)
from repro.server import protocol
from repro.server.cluster import _http_get
from repro.server.endpoint import reap
from repro.server.protocol import ErrorCode, FrameType, ServerFault

from tests.server.conftest import FrameReader
from tests.server.drivers import set_bits


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def table():
    return build_mask_table(xmlrpc(), synthetic_vocab(size=384, seed=7))


@contextlib.asynccontextmanager
async def running_cluster(table, n=2, *, admin=False, **proxy_kwargs):
    """N mask-serving backends behind a started ScanProxy."""
    servers = []
    for _ in range(n):
        server = ScanServer(
            port=0, mask_tables=[table], admin_port=0 if admin else None
        )
        await server.start()
        servers.append(server)
    if admin:
        backends = [
            (s.address[0], s.address[1], s.admin_address[1]) for s in servers
        ]
    else:
        backends = [s.address for s in servers]
    proxy = ScanProxy(backends, port=0, **proxy_kwargs)
    await proxy.start()
    try:
        yield proxy, servers
    finally:
        await proxy.stop(drain=False)
        for server in servers:
            if not server._stopped.is_set():
                await server.stop(drain=False)


# ----------------------------------------------------------------------
# the ring
# ----------------------------------------------------------------------
def _ring(members):
    ring = HashRing()
    for member in members:
        ring.add(member)
    return ring


def test_ring_lookup_is_deterministic():
    ring = _ring(["a:1", "b:2", "c:3"])
    other = _ring(["c:3", "a:1", "b:2"])  # insertion order irrelevant
    keys = [f"flow-{i}" for i in range(200)]
    owners = [ring.lookup(k) for k in keys]
    assert owners == [other.lookup(k) for k in keys]
    assert set(owners) == {"a:1", "b:2", "c:3"}


def test_ring_removal_only_remaps_the_removed_member():
    ring = _ring(["a:1", "b:2", "c:3", "d:4"])
    keys = [f"conn-{i}/flow-{j}" for i in range(40) for j in range(10)]
    before = {k: ring.lookup(k) for k in keys}
    ring.remove("c:3")
    for key, owner in before.items():
        if owner == "c:3":
            assert ring.lookup(key) != "c:3"
        else:
            assert ring.lookup(key) == owner, key


def test_ring_preference_walks_all_members():
    ring = _ring(["a:1", "b:2", "c:3"])
    pref = ring.preference("some-key")
    assert sorted(pref) == ["a:1", "b:2", "c:3"]
    assert pref[0] == ring.lookup("some-key")


def test_ring_spreads_keys():
    members = [f"b{i}:9" for i in range(4)]
    ring = _ring(members)
    counts = {m: 0 for m in members}
    for i in range(2000):
        counts[ring.lookup(f"key-{i}")] += 1
    # every member owns a non-trivial share (vnodes smooth the split)
    assert all(count > 200 for count in counts.values()), counts


def test_parse_backend_forms():
    assert parse_backend("host:9431") == BackendSpec("host", 9431, None)
    assert parse_backend("host:9431:9911") == BackendSpec("host", 9431, 9911)
    assert parse_backend(("h", 1)) == BackendSpec("h", 1, None)
    assert parse_backend(("h", 1, 2)) == BackendSpec("h", 1, 2)
    spec = BackendSpec("h", 1, 2)
    assert parse_backend(spec) is spec
    assert spec.name == "h:1"
    with pytest.raises(ValueError):
        parse_backend("no-port")


def test_proxy_beyond_loopback_refuses_loopback_backends():
    """Clients dial the backend addresses the proxy hands out: a proxy
    bound beyond loopback cannot hand out a loopback one (its clients
    would dial their own host); one on loopback, or named hosts, can."""
    for host, backends in (
        ("0.0.0.0", ["127.0.0.1:9431"]),
        ("", ["10.0.0.2:9431", "localhost:9431"]),
        ("192.0.2.7", ["127.0.0.2:9431"]),
    ):
        with pytest.raises(ValueError, match="loopback"):
            ScanProxy(backends, host=host)
    ScanProxy(["127.0.0.1:9431", "localhost:9432"], host="127.0.0.1")
    ScanProxy(["10.0.0.2:9431", "backend-a:9431"], host="0.0.0.0")


# ----------------------------------------------------------------------
# flows through the cluster ≡ direct flows
# ----------------------------------------------------------------------
def test_proxied_scan_matches_direct(table):
    """Concurrent scan flows placed on the proxy's ring produce exactly
    the single-process router's events, both backends take load, and
    not one scan frame crosses the proxy."""

    async def scenario():
        router = ContentBasedRouter()
        payloads = [
            MethodCall(name).encode() + b" "
            for name in ("buy", "sell", "deposit", "withdraw",
                         "transfer", "query")
        ]
        async with running_cluster(table, n=2) as (proxy, servers):
            async with ScanClient(*proxy.address) as client:
                results = await asyncio.gather(
                    *(client.scan_stream(p, chunk_size=7) for p in payloads)
                )
                assert client.placements == len(payloads)
            assert results == [router.route(p) for p in payloads]
            opened = [
                s.stats()["counters"].get("server.flows.opened", 0)
                for s in servers
            ]
            assert sum(opened) == len(payloads)
            counters = proxy.stats()["counters"]
            assert counters["proxy.rx.frames"] == 2  # HELLO, GOODBYE
            assert "proxy.flows.scan" not in counters

    run(scenario())


def test_proxied_mask_flow_matches_local_session(table):
    """A single-lane decode (a width-1 beam) placed on the ring."""

    async def scenario():
        async with running_cluster(table, n=2) as (proxy, _servers):
            async with ScanClient(*proxy.address) as client:
                flow = await client.open_beam_flow(table.vocab_hash, 1)
                local = MaskSession(table)
                assert flow.rows == [local.mask()]
                for step in range(40):
                    valid = set_bits(local.mask())
                    if not valid:
                        break
                    token = valid[step % len(valid)]
                    states, rows = await flow.advance([token])
                    assert states == (local.advance(token),), f"step {step}"
                    assert rows == [local.mask()], f"step {step}"
                await flow.close()

    run(scenario())


def test_proxied_beam_flow_matches_mirrors(table):
    """A beam placed on the ring — the client's decoded rows must
    track per-lane mirrors through advances, a fork and a rollback."""

    async def scenario():
        async with running_cluster(table, n=2) as (proxy, _servers):
            async with ScanClient(*proxy.address) as client:
                flow = await client.open_beam_flow(table.vocab_hash, 4)
                mirror = [MaskSession(table) for _ in range(4)]
                assert flow.rows == [m.mask() for m in mirror]
                for step in range(20):
                    ids = []
                    for m in mirror:
                        valid = set_bits(m.mask())
                        if not valid:
                            return
                        ids.append(valid[0])
                    await flow.advance(ids)
                    for m, token in zip(mirror, ids):
                        m.advance(token)
                    assert flow.states == tuple(m.state for m in mirror)
                    assert flow.rows == [m.mask() for m in mirror], step
                await flow.fork(0)
                assert flow.width == 5
                await flow.rollback(1)
                assert flow.width == 4
                await flow.close()

    run(scenario())


def test_beam_flows_cross_no_proxy(table):
    """Beams of width 1 and 3 through the cluster: the client places
    each on a ring member, as it places a scan, and the proxy reads
    nothing of them — its HELLO and GOODBYE are all it reads."""

    async def scenario():
        async with running_cluster(table, n=2) as (proxy, servers):
            async with ScanClient(*proxy.address) as client:
                for width in (1, 3, 3):
                    flow = await client.open_beam_flow(table.vocab_hash, width)
                    mirror = [MaskSession(table) for _ in range(width)]
                    ids = [set_bits(m.mask())[0] for m in mirror]
                    await flow.advance(ids)
                    for m, token in zip(mirror, ids):
                        m.advance(token)
                    assert flow.rows == [m.mask() for m in mirror]
                    await flow.close()
                assert client.placements == 3
            opened = sum(
                s.stats()["counters"].get("structgen.beams_opened", 0)
                for s in servers
            )
            assert opened == 3
            counters = proxy.stats()["counters"]
            assert counters["proxy.rx.frames"] == 2  # HELLO, GOODBYE
            assert counters["proxy.tx.frames"] == 2
            assert "proxy.flows.beam" not in counters

    run(scenario())


def test_concurrent_placements_share_one_dial_per_member(table):
    """Scans and beams opened at once by a fresh client: every flow is
    served, and each member is dialed once, however many placements
    wait for its link."""
    payloads = [MethodCall(f"m{i}").encode() + b" " for i in range(6)]

    async def beam(client):
        flow = await client.open_beam_flow(table.vocab_hash, 2)
        mirror = [MaskSession(table) for _ in range(2)]
        ids = [set_bits(m.mask())[0] for m in mirror]
        await flow.advance(ids)
        for m, token in zip(mirror, ids):
            m.advance(token)
        assert flow.rows == [m.mask() for m in mirror]
        await flow.close()
        return flow.member

    def dials(servers):
        return [
            s.stats()["counters"]["server.connections.opened"]
            for s in servers
        ]

    async def scenario():
        async with running_cluster(table, n=2) as (proxy, servers):
            await reap(proxy._health_task)  # its probes dial too
            before = dials(servers)
            async with ScanClient(*proxy.address) as client:
                results = await asyncio.gather(
                    *(client.scan_stream(p, chunk_size=9) for p in payloads),
                    *(beam(client) for _ in range(12)),
                )
                assert client.placements == 18
                assert sorted(client._members) == sorted(map(_name, servers))
            router = ContentBasedRouter()
            assert results[:6] == [router.route(p) for p in payloads]
            assert set(results[6:]) <= set(map(_name, servers))
            assert dials(servers) == [n + 1 for n in before]

    run(scenario())


def test_a_flow_being_placed_does_not_stall_its_connection(table):
    """While one beam's placement waits (here: its member's dial), the
    client's other flows keep being placed and served, and the waiting
    beam opens, and steps, once its dial completes."""
    data = WorkloadGenerator(seed=5).stream(20)[0]

    async def scenario():
        async with running_cluster(table, n=2) as (proxy, _servers):
            async with ScanClient(*proxy.address) as client:
                gate, held = asyncio.Event(), []
                member = client.member

                async def slow_first_member(name):
                    if not held:
                        held.append(name)
                        await gate.wait()
                    return await member(name)

                client.member = slow_first_member
                opening = asyncio.ensure_future(
                    client.open_beam_flow(table.vocab_hash, 1)
                )
                await asyncio.sleep(0.05)
                assert held and not opening.done()  # its placement waits
                beam = await asyncio.wait_for(
                    client.open_beam_flow(table.vocab_hash, 1), 5.0
                )
                other = await asyncio.wait_for(client.scan_stream(data), 5.0)
                await beam.close()
                local = MaskSession(table)
                token = set_bits(local.mask())[0]
                step = asyncio.ensure_future(
                    _advance_when_open(opening, token)
                )
                await asyncio.sleep(0.05)
                assert not step.done()
                gate.set()
                stuck, (states, rows) = await asyncio.wait_for(step, 5.0)
                assert stuck.member == held[0]
                await stuck.close()
        return other, (states, rows), local, token

    other, got, local, token = run(scenario())
    assert other == ContentBasedRouter().route(data)
    assert got == ((local.advance(token),), [local.mask()])


async def _advance_when_open(opening, token):
    flow = await opening
    return flow, await flow.advance([token])


def test_a_placed_beam_whose_masks_outgrow_the_client_fails(table):
    """A client dials its members with its own frame limit: a beam
    whose MASKS it could not read is refused by the member with
    FRAME_TOO_LARGE, and the next beam is served."""

    async def scenario():
        async with running_cluster(table, n=2) as (proxy, _servers):
            async with ScanClient(*proxy.address, max_frame=1024) as client:
                with pytest.raises(ServerFault) as info:
                    await client.open_beam_flow(table.vocab_hash, 20)
                assert info.value.code == ErrorCode.FRAME_TOO_LARGE
                assert client.failovers == 0
                flow = await client.open_beam_flow(table.vocab_hash, 2)
                mirror = [MaskSession(table) for _ in range(2)]
                ids = [set_bits(m.mask())[0] for m in mirror]
                await flow.advance(ids)
                for m, token in zip(mirror, ids):
                    m.advance(token)
                assert flow.rows == [m.mask() for m in mirror]
                await flow.close()
                assert client.connected and client.linked(flow.member)

    run(scenario())


def test_proxy_splits_data_to_a_backends_smaller_frame_limit():
    """One 64 KiB chunk fits the proxy's frame limit, not the backend's
    4 KiB one: the client placed on that backend splits its DATA to the
    limit the member's own HELLO advertised."""
    data = (WorkloadGenerator(seed=9).stream(200)[0] * 2)[: 1 << 16]
    assert len(data) == 1 << 16

    async def scenario():
        server = await ScanServer(port=0, max_frame=4096).start()
        proxy = await ScanProxy([server.address], port=0).start()
        try:
            async with ScanClient(*proxy.address) as client:
                got = await client.scan_stream(data, chunk_size=len(data))
                (dial,) = client._members.values()
                member = dial.result()
                assert member.server_max_frame == 4096
                assert client.server_max_frame == proxy.max_frame
            rx = server.stats()["counters"]["server.rx.frames"]
            assert rx > len(data) // 4096  # HELLO, OPEN, FINISH and DATA
        finally:
            await proxy.stop(drain=False)
            await server.stop(drain=False)
        return got

    assert run(scenario()) == ContentBasedRouter().route(data)


class _SlowStep(ScanServer):
    """A backend that takes 0.4 s per beam step."""

    def _step(self, conn, flow, frame):
        async def slow():
            await asyncio.sleep(0.4)
            ScanServer._step(self, conn, flow, frame)

        conn.run(slow())


def _step_mirrors(mirrors):
    """One token per lane, and the mirrors' reply once it is taken."""
    ids = [set_bits(m.mask())[0] for m in mirrors]
    states = tuple(m.advance(t) for m, t in zip(mirrors, ids))
    return ids, (states, [m.mask() for m in mirrors])


def test_proxy_drain_delivers_a_beam_op_in_flight(table):
    """The proxy drains, and goes away, while a beam op is in flight at
    the slow member the client placed the beam on: the reply arrives
    all the same — the beam never crosses the proxy — and the beam
    goes on stepping there."""

    async def scenario():
        server = await _SlowStep(port=0, mask_tables=[table]).start()
        proxy = await ScanProxy([server.address], port=0).start()
        try:
            async with ScanClient(*proxy.address) as client:
                flow = await client.open_beam_flow(table.vocab_hash, 1)
                local = [MaskSession(table)]
                ids, expected = _step_mirrors(local)
                step = asyncio.ensure_future(flow.advance(ids))
                await asyncio.sleep(0.1)  # sent; the member steps
                await proxy.stop(drain=True)
                assert not client.connected  # the proxy said GOODBYE
                assert await step == expected
                ids, expected = _step_mirrors(local)
                assert await flow.advance(ids) == expected
                await flow.close()
        finally:
            await proxy.stop(drain=False)
            await server.stop(drain=False)

    run(scenario())


def test_a_draining_member_moves_a_beam_byte_for_byte(table):
    """A member drains with a beam step in flight (it takes 0.4 s): the
    drain delivers that reply, then DRAINING moves the beam to the
    other member, which replays its history and serves the next steps
    exactly."""

    async def scenario():
        servers = [
            await _SlowStep(port=0, mask_tables=[table]).start()
            for _ in range(2)
        ]
        proxy = await ScanProxy([s.address for s in servers], port=0).start()
        try:
            async with ScanClient(*proxy.address) as client:
                flow = await client.open_beam_flow(table.vocab_hash, 2)
                local = [MaskSession(table) for _ in range(2)]
                ids, expected = _step_mirrors(local)
                step = asyncio.ensure_future(flow.advance(ids))
                await asyncio.sleep(0.1)  # sent; the member steps
                lost = flow.member
                drained = next(s for s in servers if _name(s) == lost)
                await drained.stop(drain=True)
                assert await step == expected
                ids, expected = _step_mirrors(local)
                assert await flow.advance(ids, timeout=10.0) == expected
                assert flow.member != lost and client.failovers == 1
                await flow.close()
        finally:
            await proxy.stop(drain=False)
            for server in servers:
                await server.stop(drain=False)

    run(scenario())


def test_a_placement_its_client_closed_under_dials_no_further_member(
    table,
):
    """The client closes while a placement waits on a member's dial;
    the dial fails, and the placement fails the flow instead of
    dialing the next member (a link nothing would close)."""

    async def scenario():
        async with running_cluster(table, n=2) as (proxy, _servers):
            client = await ScanClient(*proxy.address).connect()
            dialed, gate = [], asyncio.Event()

            async def member(name):
                dialed.append(name)
                await gate.wait()
                raise ConnectionRefusedError(f"{name} is down")

            client.member = member
            opening = asyncio.ensure_future(client.open_flow())
            await asyncio.sleep(0.05)
            await client.close()
            gate.set()
            flow = await opening
            with pytest.raises(ConnectionResetError):
                await flow.finish(timeout=1.0)
            assert len(dialed) == 1 and not client._members

    run(scenario())


def test_proxy_refuses_when_no_backend_healthy(table):
    """All backends down → the proxy hands out an empty ring, and a
    scan flow the client cannot place ends with a typed FAILOVER
    instead of a hang."""

    async def scenario():
        async with running_cluster(
            table, n=1, health_interval=0.1
        ) as (proxy, servers):
            await servers[0].stop(drain=False)
            await asyncio.sleep(0.4)  # let the prober eject it
            async with ScanClient(*proxy.address) as client:
                assert len(client._ring) == 0
                flow = await client.open_flow()
                await flow.send(b"data")
                with pytest.raises(ServerFault) as info:
                    await flow.finish(timeout=10.0)
                assert info.value.code == ErrorCode.FAILOVER
                assert client.placements == 0

    run(scenario())


# ----------------------------------------------------------------------
# the ring handed to clients
# ----------------------------------------------------------------------
def _name(server) -> str:
    return "%s:%d" % server.address


def test_an_idle_client_still_gets_the_ring_and_a_silent_one_is_reaped(
    table,
):
    """Nothing crosses a client's proxy connection once its HELLO is
    answered, so the proxy no longer reaps it: a client idle well past
    the proxy's ``idle_timeout`` still receives the ring pushed on an
    ejection, and places scans and beams on it. A connection that never
    sends HELLO is still reaped."""
    router = ContentBasedRouter()
    data = WorkloadGenerator(seed=13).stream(6)[0]

    async def scenario():
        async with running_cluster(
            table, n=2, idle_timeout=0.2
        ) as (proxy, servers):
            await reap(proxy._health_task)  # the test ejects and readmits
            reader, writer = await asyncio.open_connection(*proxy.address)
            async with ScanClient(*proxy.address) as client:
                await asyncio.sleep(0.5)
                assert client.connected
                proxy._note_backend_error(
                    proxy.backends[_name(servers[0])], "ejected by the test"
                )
                await asyncio.sleep(0.05)  # the pushed HELLO arrives
                assert client._ring.members == (_name(servers[1]),)
                for _ in range(10):
                    flow = await client.open_flow()
                    await flow.send(data)
                    assert await flow.finish() == router.route(data)
                    beam = await client.open_beam_flow(table.vocab_hash, 1)
                    assert beam.rows == [MaskSession(table).mask()]
                    await beam.close()
                    assert {flow.member, beam.member} == {_name(servers[1])}
                assert client.placements == 20
                # The silent connection got IDLE_TIMEOUT and was closed.
                frames = FrameReader(reader)
                error = await asyncio.wait_for(frames.frame(), 5.0)
                assert error.type == FrameType.ERROR
                code = protocol.decode_error(error)[1]
                assert code == ErrorCode.IDLE_TIMEOUT
                assert await asyncio.wait_for(frames.frame(), 5.0) is None
                writer.close()
            counters = proxy.stats()["counters"]
            assert counters["proxy.timeouts.idle"] == 1
            assert counters["proxy.ring.pushes"] == 1

    run(scenario())


def test_client_stops_placing_on_a_member_the_proxy_ejected(table):
    """The proxy ejects a backend and pushes the smaller ring on the
    open connection: the client's new flows all land on the member
    left; once it readmits the backend, flows land on both again."""
    router = ContentBasedRouter()
    data = WorkloadGenerator(seed=14).stream(2)[0]

    async def placed(client, n):
        members = set()
        for _ in range(n):
            flow = await client.open_flow()
            await flow.send(data)
            assert await flow.finish() == router.route(data)
            members.add(flow.member)
        return members

    async def scenario():
        async with running_cluster(table, n=2) as (proxy, servers):
            await reap(proxy._health_task)  # the test ejects and readmits
            async with ScanClient(*proxy.address) as client:
                assert await placed(client, 20) == {
                    _name(s) for s in servers
                }
                ejected = proxy.backends[_name(servers[0])]
                proxy._note_backend_error(ejected, "ejected by the test")
                await asyncio.sleep(0.05)  # the pushed HELLO arrives
                assert client._ring.members == (_name(servers[1]),)
                assert await placed(client, 20) == {_name(servers[1])}
                proxy._readmit(ejected)
                await asyncio.sleep(0.05)
                assert len(client._ring) == 2
                assert await placed(client, 20) == {
                    _name(s) for s in servers
                }
            pushes = proxy.stats()["counters"]["proxy.ring.pushes"]
            assert pushes == 2

    run(scenario())


# ----------------------------------------------------------------------
# aggregated admin endpoint
# ----------------------------------------------------------------------
def test_proxy_admin_aggregates_backends(table):
    async def scenario():
        async with running_cluster(
            table, n=2, admin=True, admin_port=0
        ) as (proxy, _servers):
            # drive a little traffic so counters are non-zero
            async with ScanClient(*proxy.address) as client:
                await client.scan_stream(
                    MethodCall("buy").encode(), chunk_size=5
                )

            host, port = proxy.admin_address
            status, body = await _http_get(host, port, "/healthz")
            assert status == 200 and body == "ok\n"

            status, body = await _http_get(host, port, "/metrics")
            assert status == 200
            # proxy's own series plus relabeled backend series
            assert "repro_proxy_ring_pushes" in body
            assert 'backend="' in body
            # merged exposition keeps one TYPE line per metric
            lines = body.splitlines()
            type_lines = [l for l in lines if l.startswith("# TYPE ")]
            assert len(type_lines) == len(set(type_lines))

            status, body = await _http_get(host, port, "/stats")
            assert status == 200
            stats = json.loads(body)
            assert len(stats["backends"]) == 2
            assert stats["ring"]["members"] == sorted(stats["backends"])
            assert stats["counters"]["proxy.ring.pushes"] == 0
            for info in stats["backends"].values():
                assert info["healthy"] is True
                assert info["stats"] is not None

    run(scenario())


def test_proxy_healthz_degrades_to_503(table):
    async def scenario():
        async with running_cluster(
            table, n=1, admin_port=0, health_interval=0.1
        ) as (proxy, servers):
            await servers[0].stop(drain=False)
            await asyncio.sleep(0.4)
            host, port = proxy.admin_address
            status, body = await _http_get(host, port, "/healthz")
            assert status == 503
            assert "no healthy backends" in body

    run(scenario())


def test_http_get_reads_a_split_response_to_the_end():
    """Regression: a reply that arrives in two segments used to come
    back cut at the first (one ``read()``), dropping the backend from
    the proxy's ``/stats`` and truncating its merged ``/metrics``."""
    body = b"m" * 200_000

    async def responder(reader, writer):
        await reader.readline()
        head = (
            "HTTP/1.0 200 OK\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body[:1000])
        await writer.drain()
        await asyncio.sleep(0.05)
        writer.write(body[1000:])
        await writer.drain()
        writer.close()

    async def scenario():
        listener = await asyncio.start_server(responder, "127.0.0.1", 0)
        port = listener.sockets[0].getsockname()[1]
        status, got = await _http_get("127.0.0.1", port, "/metrics")
        assert status == 200
        assert len(got) == len(body) and got == body.decode()
        # ... still under one deadline: a responder that never finishes
        # is a timeout, not a hang.
        async def stalled(reader, writer):
            await reader.read()  # until the client gives up
            writer.close()

        stall = await asyncio.start_server(stalled, "127.0.0.1", 0)
        with pytest.raises(asyncio.TimeoutError):
            await _http_get(
                "127.0.0.1",
                stall.sockets[0].getsockname()[1],
                "/stats",
                timeout=0.2,
            )
        listener.close()
        stall.close()

    run(scenario())


def test_ring_preference_from_a_point_is_the_keys_walk():
    """A point of the ring walks as the key that hashes to it does,
    before and after a membership change."""
    from repro.server.ring import _ring_hash

    ring = _ring(["a:1", "b:2", "c:3"])
    fresh = _ring(["a:1", "b:2", "c:3"])
    for i in range(50):
        key = f"flow-{i}"
        assert ring.preference(_ring_hash(key)) == ring.preference(key)
        assert ring.preference(key) == fresh.preference(key)
    point = _ring_hash("flow-7")
    owner = ring.preference(point)[0]
    ring.remove(owner)
    assert owner not in ring.preference(point)
    ring.add(owner)
    assert ring.preference(point) == fresh.preference(point)
