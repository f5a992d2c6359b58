"""Failover: killing a backend under live flows.

The failover contract (DESIGN.md §14) is one rule for every flow kind,
kept by the client that placed the flow on the proxy's ring: the
flow's history is replayed onto a surviving backend and the client
sees byte-for-byte the same replies it would have seen with no kill —
scan results (its chunk journal sent again), and beam masks of any
width (its answered ops replayed, after forks and rollbacks, through
the delta chain). A beam replay whose replies differ from those
already delivered, and a ring with no backend left, end the flow with
a typed FAILOVER instead of wrong masks. All kills here are hard
(``stop(drain=False)`` — TCP reset semantics, no DRAINING courtesy),
the worst case.
"""

import asyncio
import contextlib

import pytest

from repro.apps.structgen import MaskSession, build_mask_table, synthetic_vocab
from repro.apps.xmlrpc import ContentBasedRouter, MethodCall
from repro.grammar.examples import if_then_else, xmlrpc
from repro.server import (
    ScanClient,
    ScanProxy,
    ScanServer,
    ServerFault,
)
from repro.server.endpoint import reap
from repro.server.protocol import ErrorCode

from tests.server.drivers import run_beam_load, set_bits


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def table():
    return build_mask_table(xmlrpc(), synthetic_vocab(size=384, seed=7))


@contextlib.asynccontextmanager
async def failover_cluster(table, n=3, tables=None, cls=ScanServer):
    """N backends (``cls``) behind a fast-probing proxy; the test kills
    some. Backend ``i`` serves ``tables[i]`` (default: ``table`` on
    all)."""
    servers = []
    for i in range(n):
        server = cls(
            port=0, mask_tables=[tables[i] if tables else table]
        )
        await server.start()
        servers.append(server)
    proxy = ScanProxy(
        [s.address for s in servers], port=0, health_interval=0.2
    )
    await proxy.start()
    try:
        yield proxy, servers
    finally:
        await proxy.stop(drain=False)
        for server in servers:
            if not server._stopped.is_set():
                await server.stop(drain=False)


def _server_named(servers, name):
    for server in servers:
        if f"{server.address[0]}:{server.address[1]}" == name:
            return server
    raise AssertionError(f"no server named {name}")


# ----------------------------------------------------------------------
# single-flow kills: exact bytes, or a typed FAILOVER
# ----------------------------------------------------------------------
def test_scan_flow_survives_backend_kill_byte_for_byte(table):
    async def scenario():
        router = ContentBasedRouter()
        data = b"".join(
            MethodCall(name).encode() + b" "
            for name in ("buy", "sell", "deposit", "withdraw")
        )
        async with failover_cluster(table) as (proxy, servers):
            async with ScanClient(*proxy.address) as client:
                flow = await client.open_flow()
                await flow.send(data[: len(data) // 2])
                await _server_named(servers, flow.member).stop(drain=False)
                await flow.send(data[len(data) // 2 :])
                got = await flow.finish(timeout=15.0)
                assert client.failovers >= 1
            assert got == router.route(data)

    run(scenario())


class _Mirror:
    """Per-lane MaskSession mirrors of a beam, forks and rollbacks
    included, and the check that a flow's rows equal them."""

    def __init__(self, table, width):
        self.table = table
        self.lanes = [MaskSession(table) for _ in range(width)]
        self.history = []

    def ids(self):
        return [set_bits(m.mask())[0] for m in self.lanes]

    def advance(self, ids):
        self.history.append([m.state for m in self.lanes])
        for m, token in zip(self.lanes, ids):
            m.advance(token)

    def fork(self, lane):
        self.history.append([m.state for m in self.lanes])
        twin = MaskSession(self.table)
        twin.state = self.lanes[lane].state
        self.lanes.append(twin)

    def rollback(self, k):
        for _ in range(k):
            snapshot = self.history.pop()
        self.lanes = [MaskSession(self.table) for _ in snapshot]
        for m, state in zip(self.lanes, snapshot):
            m.state = state

    def check(self, flow, what):
        assert flow.states == tuple(m.state for m in self.lanes), what
        assert flow.rows == [m.mask() for m in self.lanes], what


async def _walk(flow, mirror, steps, what):
    for step in range(steps):
        ids = mirror.ids()
        await flow.advance(ids, timeout=15.0)
        mirror.advance(ids)
        mirror.check(flow, f"{what} step {step}")


def test_mask_flow_survives_backend_kill_byte_for_byte(table):
    """A single-lane decode (a width-1 beam) replayed onto another
    backend goes on byte-for-byte."""

    async def scenario():
        async with failover_cluster(table) as (proxy, servers):
            async with ScanClient(*proxy.address) as client:
                flow = await client.open_beam_flow(table.vocab_hash, 1)
                mirror = _Mirror(table, 1)
                await _walk(flow, mirror, 10, "before the kill")
                lost = flow.member
                await _server_named(servers, lost).stop(drain=False)
                await _walk(flow, mirror, 10, "after the kill")
                await flow.close()
                assert client.failovers >= 1 and flow.member != lost

    run(scenario())


def test_beam_flow_survives_backend_kill_byte_for_byte(table):
    """A width-3 beam that forked, rolled back and had a token refused
    before the kill: the replayed delta chain lines up, every row after
    it is exact."""

    async def scenario():
        async with failover_cluster(table) as (proxy, servers):
            async with ScanClient(*proxy.address) as client:
                flow = await client.open_beam_flow(table.vocab_hash, 3)
                mirror = _Mirror(table, 3)
                await _walk(flow, mirror, 4, "advance")
                with pytest.raises(ServerFault) as info:
                    await flow.advance([len(table.vocab)] * 3, timeout=15.0)
                assert info.value.code == ErrorCode.BAD_TOKEN
                await flow.fork(1)
                mirror.fork(1)
                await _walk(flow, mirror, 3, "after the fork")
                await flow.rollback(2)
                mirror.rollback(2)
                mirror.check(flow, "rollback")
                assert flow.lanes_delta > 0
                lost = flow.member
                await _server_named(servers, lost).stop(drain=False)
                await _walk(flow, mirror, 6, "after the kill")
                await flow.fork(0)
                mirror.fork(0)
                mirror.check(flow, "fork after the kill")
                await flow.rollback(1)
                mirror.rollback(1)
                mirror.check(flow, "rollback after the kill")
                await flow.close()
                assert client.failovers >= 1 and flow.member != lost

    run(scenario())


def test_pipelined_frames_keep_their_order_across_a_kill(table):
    """Frames sent without awaiting between them, across a hard kill of
    the backends holding a scan flow and a width-3 beam: the frames
    are sent while the client places the flows again and must still go
    out in order — the scan's three DATA and FINISH, and the beam's
    gathered advances, answered byte for byte."""

    async def scenario():
        router = ContentBasedRouter()
        data = b"".join(
            MethodCall(name).encode() + b" "
            for name in ("buy", "sell", "deposit", "withdraw", "transfer")
        )
        head, rest = data[: len(data) // 4], data[len(data) // 4 :]
        third = -(-len(rest) // 3)
        pieces = [rest[i : i + third] for i in range(0, len(rest), third)]
        assert len(pieces) == 3
        async with failover_cluster(table) as (proxy, servers):
            async with ScanClient(*proxy.address) as client:
                scan = await client.open_flow()
                await scan.send(head)
                beam = await client.open_beam_flow(table.vocab_hash, 3)
                mirror = _Mirror(table, 3)
                await _walk(beam, mirror, 3, "before the kill")
                owners = {
                    _server_named(servers, scan.member),
                    _server_named(servers, beam.member),
                }
                steps = []
                for _ in range(6):
                    ids = mirror.ids()
                    mirror.advance(ids)
                    steps.append((
                        ids,
                        (
                            tuple(m.state for m in mirror.lanes),
                            [m.mask() for m in mirror.lanes],
                        ),
                    ))
                before = asyncio.gather(
                    *(beam.advance(ids, timeout=15.0) for ids, _ in steps[:3])
                )
                await asyncio.sleep(0)  # queued, on the wire at turn end
                for owner in owners:
                    await owner.stop(drain=False)
                for piece in pieces:
                    await scan.send(piece)
                after = asyncio.gather(
                    *(beam.advance(ids, timeout=15.0) for ids, _ in steps[3:])
                )
                got = await scan.finish(timeout=15.0)
                replies = [*await before, *await after]
                assert replies == [expected for _, expected in steps]
                mirror.check(beam, "after the kill")
                await beam.close()
                assert client.failovers >= 2  # the scan and the beam
            assert got == router.route(data)

    run(scenario())


def test_beam_flow_gets_typed_failover(table):
    """No backend left to replay onto: the beam ends with FAILOVER."""

    async def scenario():
        async with failover_cluster(table, n=1) as (proxy, servers):
            async with ScanClient(*proxy.address) as client:
                flow = await client.open_beam_flow(table.vocab_hash, 3)
                await flow.advance(_Mirror(table, 3).ids())
                await servers[0].stop(drain=False)
                with pytest.raises(ServerFault) as info:
                    await flow.finish(timeout=15.0)
                assert info.value.code == ErrorCode.FAILOVER
                assert "no healthy ring member" in info.value.detail
                assert client.failovers == 0

    run(scenario())


def test_digest_mismatch_gets_typed_failover(table):
    """Two backends share the vocabulary hash but serve masks of
    different grammars: replaying onto the other one does not reproduce
    the replies already delivered, so the beam ends with FAILOVER and
    the client never sees a row of the other grammar."""
    other = build_mask_table(if_then_else(), synthetic_vocab(size=384, seed=7))
    assert other.vocab_hash == table.vocab_hash
    assert other.mask_row(0) != table.mask_row(0)

    async def scenario():
        async with failover_cluster(
            table, n=2, tables=[table, other]
        ) as (proxy, servers):
            async with ScanClient(*proxy.address) as client:
                flow = await client.open_beam_flow(table.vocab_hash, 2)
                owner = _server_named(servers, flow.member)
                mirror = _Mirror(owner._mask_tables[table.vocab_hash], 2)
                mirror.check(flow, "open")
                await _walk(flow, mirror, 5, "before the kill")
                await owner.stop(drain=False)
                with pytest.raises(ServerFault) as info:
                    await flow.finish(timeout=15.0)
                assert info.value.code == ErrorCode.FAILOVER
                mirror.check(flow, "after the FAILOVER")
                assert client.failovers == 1  # placed, then refused

    run(scenario())


class _Perturbing(ScanServer):
    """A member that flips one bit of the last row in its next
    ``perturb`` MASKS replies."""

    perturb = 0

    def _encode_beam_masks(self, flow):
        frame = super()._encode_beam_masks(flow)
        if not self.perturb:
            return frame
        self.perturb -= 1
        return frame[:-1] + bytes([frame[-1] ^ 1])


def _survivor(servers, lost):
    (server,) = (s for s in servers if "%s:%d" % s.address != lost)
    return server


def test_a_replay_whose_masks_differ_fails_with_failover(table):
    """The member a beam moves to answers the replayed opener with one
    bit of a row flipped: the replayed MASKS do not hash to those
    already delivered, so the beam ends with FAILOVER, its rows stay
    those delivered, and the member's flow is abandoned."""

    async def scenario():
        async with failover_cluster(
            table, n=2, cls=_Perturbing
        ) as (proxy, servers):
            async with ScanClient(*proxy.address) as client:
                flow = await client.open_beam_flow(table.vocab_hash, 2)
                mirror = _Mirror(table, 2)
                await _walk(flow, mirror, 4, "before the kill")
                lost = flow.member
                survivor = _survivor(servers, lost)
                survivor.perturb = 1
                await _server_named(servers, lost).stop(drain=False)
                with pytest.raises(ServerFault) as info:
                    await flow.advance(mirror.ids(), timeout=15.0)
                assert info.value.code == ErrorCode.FAILOVER
                assert "differ" in info.value.detail
                mirror.check(flow, "after the FAILOVER")
                assert survivor.perturb == 0 and client.failovers == 1
                for _ in range(100):
                    if not list(survivor._open_flows()):
                        break
                    await asyncio.sleep(0.01)
                assert not list(survivor._open_flows())

    run(scenario())


def test_a_refused_op_is_never_replayed(table):
    """A BAD_TOKEN refused an op: the beam did not move, so the op
    leaves the journal. The member the beam moves to is sent the
    opener and the answered ops, never the refused one (it would be
    refused again), then the op sent after the kill."""

    async def scenario():
        async with failover_cluster(table, n=2) as (proxy, servers):
            async with ScanClient(*proxy.address) as client:
                flow = await client.open_beam_flow(table.vocab_hash, 2)
                mirror = _Mirror(table, 2)
                await _walk(flow, mirror, 2, "before the refusal")
                with pytest.raises(ServerFault) as info:
                    await flow.advance([len(table.vocab)] * 2, timeout=15.0)
                assert info.value.code == ErrorCode.BAD_TOKEN
                await _walk(flow, mirror, 2, "after the refusal")
                lost = flow.member
                survivor = _survivor(servers, lost)

                def received():
                    counters = survivor.stats()["counters"]
                    return (
                        counters["server.rx.frames"],
                        counters.get("server.errors.sent", 0),
                    )

                frames, errors = received()
                await _server_named(servers, lost).stop(drain=False)
                await _walk(flow, mirror, 1, "after the kill")
                await flow.close()
                assert client.failovers == 1 and flow.member != lost
                # HELLO, the opener, four answered advances, the one
                # sent after the kill, FINISH_FLOW; nothing refused.
                assert received() == (frames + 8, errors)

    run(scenario())


def test_beam_ops_pipelined_across_a_kill_keep_their_order(table):
    """Advances sent without awaiting between them, some before a hard
    kill of the beam's member and some while the client moves it: the
    survivor replays the answered prefix, then takes the rest in
    order, and every reply is the mirrors' step."""

    async def scenario():
        async with failover_cluster(table, n=2) as (proxy, servers):
            async with ScanClient(*proxy.address) as client:
                beam = await client.open_beam_flow(table.vocab_hash, 3)
                mirror = _Mirror(table, 3)
                await _walk(beam, mirror, 2, "before the kill")
                steps = []
                for _ in range(8):
                    ids = mirror.ids()
                    mirror.advance(ids)
                    steps.append((ids, (
                        tuple(m.state for m in mirror.lanes),
                        [m.mask() for m in mirror.lanes],
                    )))
                before = asyncio.gather(
                    *(beam.advance(ids, timeout=15.0) for ids, _ in steps[:4])
                )
                await asyncio.sleep(0)  # queued, on the wire at turn end
                lost = beam.member
                await _server_named(servers, lost).stop(drain=False)
                after = asyncio.gather(
                    *(beam.advance(ids, timeout=15.0) for ids, _ in steps[4:])
                )
                replies = [*await before, *await after]
                assert replies == [expected for _, expected in steps]
                mirror.check(beam, "after the kill")
                await beam.close()
                assert client.failovers == 1 and beam.member != lost

    run(scenario())


# ----------------------------------------------------------------------
# kills under load: the generators keep verifying through a failover
# ----------------------------------------------------------------------
async def _kill_first_owner(servers, kind, timeout=10.0):
    """Wait for any backend to hold a flow of ``kind``, then hard-kill
    it."""
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        for server in servers:
            if any(flow.kind == kind for flow in server._open_flows()):
                await server.stop(drain=False)
                return
        await asyncio.sleep(0.02)
    raise AssertionError(f"no {kind} flow ever placed")


async def _beam_load_under_kill(table, **load):
    """run_beam_load through the proxy with the first beam owner
    hard-killed mid-run."""
    async with failover_cluster(table) as (proxy, servers):
        host, port = proxy.address
        task = asyncio.ensure_future(
            run_beam_load(
                host, port, table, concurrency=2, request_timeout=30.0,
                **load,
            )
        )
        await asyncio.sleep(0.1)
        await _kill_first_owner(servers, "beam")
        report = await asyncio.wait_for(task, 120.0)
        assert report["failovers"] >= 1
        return report


def test_mask_load_survives_backend_kill(table):
    """run_beam_load at width 1 with a backend hard-killed mid-run:
    every reply — including those after the replay — must still match
    the in-process mirrors, so verified stays True."""
    report = run(
        # steps must outlast the 0.1 s before the kill
        _beam_load_under_kill(table, beams=6, width=1, steps=600)
    )
    assert report["failures"] == []
    assert report["mismatches"] == []
    assert report["verified"] is True
    assert report["beams"] == 6


def test_beam_load_survives_backend_kill(table):
    """The same at width 4, forks and rollbacks mixed in."""
    report = run(_beam_load_under_kill(table, beams=4, width=4, steps=1000))
    assert report["failures"] == []
    assert report["mismatches"] == []
    assert report["verified"] is True


def test_scan_flows_fail_over_together_onto_an_undialed_backend(table):
    """Four scan flows on one backend, the other never dialed by the
    client: a hard kill moves all four at once, and their placements
    share the one dial of the survivor."""

    async def scenario():
        router = ContentBasedRouter()
        data = b"".join(MethodCall(n).encode() + b" " for n in ("a", "b"))
        servers = [await ScanServer(port=0).start() for _ in range(2)]
        names = ["%s:%d" % s.address for s in servers]
        proxy = await ScanProxy(names, port=0).start()
        await reap(proxy._health_task)  # the test ejects and readmits
        try:
            async with ScanClient(*proxy.address) as client:
                proxy._note_backend_error(proxy.backends[names[1]], "test")
                await asyncio.sleep(0.05)  # the smaller ring arrives
                flows = [await client.open_flow() for _ in range(4)]
                for flow in flows:
                    await flow.send(data[:20])
                assert {flow.member for flow in flows} == {names[0]}
                proxy._readmit(proxy.backends[names[1]])
                await asyncio.sleep(0.05)
                assert not client.linked(names[1])
                await servers[0].stop(drain=False)
                for flow in flows:
                    await flow.send(data[20:])
                got = [await flow.finish(timeout=15.0) for flow in flows]
                assert {flow.member for flow in flows} == {names[1]}
                assert client.failovers == 4
            assert got == [router.route(data)] * 4
        finally:
            await proxy.stop(drain=False)
            for server in servers:
                if not server._stopped.is_set():
                    await server.stop(drain=False)

    run(scenario())
