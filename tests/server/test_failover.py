"""Failover: killing a backend under live flows.

The proxy's failover contract (DESIGN.md §14): scan and mask flows
are journal-replayed onto a surviving backend and the client sees
byte-for-byte the same results it would have seen with no kill; beam
flows are *not* replayable (their server state is a delta chain) and
the client receives a typed FAILOVER error instead of silently wrong
masks. All kills here are hard (``stop(drain=False)`` — TCP reset
semantics, no DRAINING courtesy), the worst case.
"""

import asyncio
import contextlib

import pytest

from repro.apps.structgen import MaskSession, build_mask_table, synthetic_vocab
from repro.apps.xmlrpc import ContentBasedRouter, MethodCall
from repro.grammar.examples import xmlrpc
from repro.server import (
    ScanClient,
    ScanProxy,
    ScanServer,
    ServerFault,
)
from repro.server.protocol import ErrorCode

from tests.server.drivers import run_beam_load, run_mask_load, set_bits


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def table():
    return build_mask_table(xmlrpc(), synthetic_vocab(size=384, seed=7))


@contextlib.asynccontextmanager
async def failover_cluster(table, n=3):
    """N backends behind a fast-probing proxy; the test kills some."""
    servers = []
    for _ in range(n):
        server = ScanServer(port=0, mask_tables=[table])
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


def _owner(proxy, flow_id, kind=None):
    """Which backend a proxied client flow is currently pinned to."""
    for conn in proxy._connections.values():
        flow = conn.flows.get(flow_id)
        if flow is not None and (kind is None or flow.kind == kind):
            return flow.backend
    return None


def _server_named(servers, name):
    for server in servers:
        if f"{server.address[0]}:{server.address[1]}" == name:
            return server
    raise AssertionError(f"no server named {name}")


async def _pinned_backend(proxy, flow_id, kind=None, timeout=5.0):
    """Wait until the proxy has pinned the flow and return its backend."""
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        backend = _owner(proxy, flow_id, kind)
        if backend is not None:
            return backend
        await asyncio.sleep(0.02)
    raise AssertionError("flow never pinned to a backend")


# ----------------------------------------------------------------------
# single-flow kills: exact bytes (scan/mask), typed error (beam)
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
                backend = await _pinned_backend(proxy, flow.flow_id)
                await _server_named(servers, backend.name).stop(drain=False)
                await flow.send(data[len(data) // 2 :])
                got = await flow.finish(timeout=15.0)
            assert got == router.route(data)
            assert proxy.metrics.counter("proxy.failovers").value >= 1

    run(scenario())


def test_mask_flow_survives_backend_kill_byte_for_byte(table):
    async def scenario():
        async with failover_cluster(table) as (proxy, servers):
            async with ScanClient(*proxy.address) as client:
                flow = await client.open_mask_flow(table.vocab_hash)
                local = MaskSession(table)

                async def step():
                    valid = set_bits(local.mask())
                    assert valid, "mirror dead-ended mid-test"
                    state, row = await flow.advance(valid[0], timeout=15.0)
                    assert state == local.advance(valid[0])
                    assert row == local.mask()

                for _ in range(10):
                    await step()
                backend = await _pinned_backend(proxy, flow.flow_id, "mask")
                await _server_named(servers, backend.name).stop(drain=False)
                for _ in range(10):  # replayed journal → identical bytes
                    await step()
                await flow.close()
            assert proxy.metrics.counter("proxy.failovers").value >= 1

    run(scenario())


def test_beam_flow_gets_typed_failover(table):
    async def scenario():
        async with failover_cluster(table) as (proxy, servers):
            async with ScanClient(*proxy.address) as client:
                flow = await client.open_beam_flow(table.vocab_hash, 3)
                ids = [set_bits(row)[0] for row in flow.rows]
                await flow.advance(ids)
                backend = await _pinned_backend(proxy, flow.flow_id, "beam")
                await _server_named(servers, backend.name).stop(drain=False)
                with pytest.raises(ServerFault) as info:
                    for _ in range(5):
                        ids = [set_bits(row)[0] for row in flow.rows]
                        await flow.advance(ids, timeout=15.0)
                assert info.value.code == ErrorCode.FAILOVER
                assert "not replayable" in info.value.detail

    run(scenario())


# ----------------------------------------------------------------------
# kills under load: the generators keep verifying through a failover
# ----------------------------------------------------------------------
async def _kill_first_owner(proxy, servers, kind, timeout=10.0):
    """Wait for any flow of ``kind`` to be pinned, then hard-kill its
    backend; returns the killed server's name."""
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        for conn in list(proxy._connections.values()):
            for flow in list(conn.flows.values()):
                if flow.kind == kind and flow.backend is not None:
                    name = flow.backend.name
                    await _server_named(servers, name).stop(drain=False)
                    return name
        await asyncio.sleep(0.02)
    raise AssertionError(f"no {kind} flow ever pinned")


def test_mask_load_survives_backend_kill(table):
    """run_mask_load with a backend hard-killed mid-run: every reply —
    including those after the journal re-replay — must still match the
    in-process mirrors, so verified stays True."""

    async def scenario():
        async with failover_cluster(table) as (proxy, servers):
            host, port = proxy.address
            load = asyncio.ensure_future(
                run_mask_load(
                    host,
                    port,
                    table,
                    sessions=6,
                    steps=600,  # must outlast the 0.1 s before the kill
                    concurrency=3,
                    request_timeout=30.0,
                )
            )
            await asyncio.sleep(0.1)
            await _kill_first_owner(proxy, servers, "mask")
            report = await asyncio.wait_for(load, 120.0)
            assert report["failures"] == []
            assert report["mismatches"] == []
            assert report["verified"] is True
            assert report["sessions"] == 6

    run(scenario())


def test_beam_load_surfaces_failover_not_garbage(table):
    """run_beam_load with the beam-owning backend killed mid-run: the
    affected beams end with a typed FAILOVER failure, and — crucially —
    zero mismatches: the proxy never forwards masks from a replacement
    backend whose delta chain wouldn't line up."""

    async def scenario():
        async with failover_cluster(table) as (proxy, servers):
            host, port = proxy.address
            load = asyncio.ensure_future(
                run_beam_load(
                    host,
                    port,
                    table,
                    beams=4,
                    width=4,
                    steps=1000,  # must outlast the 0.1 s before the kill
                    concurrency=2,
                    request_timeout=30.0,
                )
            )
            await asyncio.sleep(0.1)
            killed = await _kill_first_owner(proxy, servers, "beam")
            report = await asyncio.wait_for(load, 120.0)
            assert report["mismatches"] == []
            assert any("FAILOVER" in f for f in report["failures"]), (
                killed,
                report["failures"],
            )

    run(scenario())
