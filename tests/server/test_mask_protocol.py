"""Single-lane decode over the framed wire protocol: a beam of width 1.

The acceptance invariant: every (state, mask) a live ``ScanServer``
streams back over OPEN_BEAM/BATCH_ADVANCE for a one-lane beam must be
byte-for-byte what an in-process
:class:`~repro.apps.structgen.MaskSession` on the same table produces
— through explicit in-memory tables and through registry-backed lazy
loading — plus the fault paths (unknown vocabulary, DATA on the flow,
an invalid token that fails only its request) and the admin
endpoint's structgen exposition. Wider beams, forks and rollbacks are
``test_beam_protocol.py``'s subject.
"""

import asyncio
import json
import random
import time

import pytest

from repro.apps.structgen import MaskSession, build_mask_table, synthetic_vocab
from repro.grammar.examples import xmlrpc
from repro.server import ScanClient, protocol
from repro.server.protocol import ErrorCode, ServerFault
from repro.service import Registry

from tests.server.conftest import running_server
from tests.server.drivers import run_beam_load, set_bits


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def table():
    return build_mask_table(xmlrpc(), synthetic_vocab(size=384, seed=7))


async def _http_get(address, path: str) -> tuple[str, str]:
    reader, writer = await asyncio.open_connection(*address)
    writer.write(f"GET {path} HTTP/1.0\r\nHost: x\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _sep, body = raw.decode("utf-8").partition("\r\n\r\n")
    return head.splitlines()[0].split(" ", 1)[1], body


async def _walk(flow, local: MaskSession, rng, steps: int) -> None:
    """``steps`` seeded valid tokens through the one-lane ``flow``,
    every reply equal to the mirror's."""
    for _ in range(steps):
        valid = set_bits(local.mask())
        if not valid:
            break
        token_id = rng.choice(valid)
        states, rows = await flow.advance([token_id])
        assert states == (local.advance(token_id),)
        assert rows == [local.mask()]


# ----------------------------------------------------------------------
def test_mask_flow_matches_local_session(table):
    """Seeded decode over TCP ≡ in-process session, every reply."""

    async def main():
        async with running_server(mask_tables=[table]) as server:
            host, port = server.address
            local = MaskSession(table)
            async with ScanClient(host, port) as client:
                flow = await client.open_beam_flow(table.vocab_hash, 1)
                assert flow.states == (local.state,)
                assert flow.rows == [local.mask()]
                await _walk(flow, local, random.Random(2006), 60)
                await flow.close()
            snapshot = server.stats()
            assert snapshot["counters"]["structgen.beams_opened"] == 1
            assert snapshot["counters"]["structgen.beams_closed"] == 1
            assert snapshot["structgen"]["beams_open"] == 0
            assert snapshot["structgen"]["tables"][0]["vocab_size"] == 384

    run(main())


def test_unknown_vocab_refused(table):
    async def main():
        async with running_server(mask_tables=[table]) as server:
            host, port = server.address
            async with ScanClient(host, port) as client:
                with pytest.raises(ServerFault) as info:
                    await client.open_beam_flow("ab" * 32, 1)
                assert info.value.code == ErrorCode.UNKNOWN_VOCAB
                assert "precompute" in str(info.value)

    run(main())


def test_data_on_mask_flow_rejected(table):
    async def main():
        async with running_server(mask_tables=[table]) as server:
            host, port = server.address
            async with ScanClient(host, port) as client:
                flow = await client.open_beam_flow(table.vocab_hash, 1)
                await client._send(
                    protocol.encode_data(flow.flow_id, b"<x>")
                )
                with pytest.raises(ServerFault) as info:
                    await flow.advance([0], timeout=5.0)
                assert info.value.code == ErrorCode.BAD_FRAME

    run(main())


def test_invalid_token_fails_only_the_request(table):
    """A token the lane's state refuses is ``BAD_TOKEN`` for that one
    request: the one-lane beam did not move, stays open, and its next
    valid advance is answered as if the bad one never happened."""

    async def main():
        async with running_server(mask_tables=[table]) as server:
            host, port = server.address
            local = MaskSession(table)
            async with ScanClient(host, port) as client:
                flow = await client.open_beam_flow(table.vocab_hash, 1)
                valid = set_bits(local.mask())
                invalid = next(
                    i for i in range(len(table.vocab)) if i not in valid
                )
                with pytest.raises(ServerFault) as info:
                    await flow.advance([invalid], timeout=5.0)
                assert info.value.code == ErrorCode.BAD_TOKEN
                assert flow.states == (local.state,)
                states, rows = await flow.advance([valid[0]])
                assert states == (local.advance(valid[0]),)
                assert rows == [local.mask()]
                await flow.close()

    run(main())


def test_drain_does_not_wait_for_mask_flows(table):
    """Interactive decode sessions never 'finish'; stop(drain=True)
    must not hold the server open on their account."""

    async def main():
        async with running_server(mask_tables=[table]) as server:
            host, port = server.address
            client = ScanClient(host, port)
            await client.connect()
            await client.open_beam_flow(table.vocab_hash, 1)
            started = time.perf_counter()
            await server.stop(drain=True, timeout=10.0)
            assert time.perf_counter() - started < 5.0
            await client.close()

    run(main())


# ----------------------------------------------------------------------
def test_registry_backed_masks_and_admin(tmp_path):
    """Lazy mask loading from the registry store: cold start once,
    served identically, visible on /stats and /metrics."""
    registry = Registry(str(tmp_path / "store"))
    ref = registry.publish("xmlrpc", xmlrpc())
    vocab = synthetic_vocab(size=384, seed=7)
    registry.publish_masks(ref, vocab)
    table = registry.load_masks(ref, vocab.vocab_hash)

    async def main():
        async with running_server(
            registry=str(tmp_path / "store"),
            grammar=ref,
            admin_port=0,
        ) as server:
            host, port = server.address
            local = MaskSession(table)
            async with ScanClient(host, port) as client:
                flow = await client.open_beam_flow(vocab.vocab_hash, 1)
                assert flow.rows == [local.mask()]
                await _walk(flow, local, random.Random(5), 20)
                await flow.close()

            status, body = await _http_get(
                server.admin_address, "/stats"
            )
            assert status == "200 OK"
            stats = json.loads(body)
            assert stats["structgen"]["tables"][0]["vocab_size"] == 384
            assert (
                stats["histograms"]["structgen.coldstart_ms"]["count"]
                == 1
            )
            status, body = await _http_get(
                server.admin_address, "/metrics"
            )
            assert status == "200 OK"
            assert "repro_structgen_masks_served" in body
            assert "repro_structgen_coldstart_ms_bucket" in body

    run(main())


def test_unknown_vocab_negative_cache(tmp_path):
    """A vocab hash with no artifact is refused (and the registry is
    not re-probed per OPEN_BEAM — the miss is cached)."""
    registry = Registry(str(tmp_path / "store"))
    ref = registry.publish("xmlrpc", xmlrpc())

    async def main():
        async with running_server(
            registry=str(tmp_path / "store"), grammar=ref
        ) as server:
            host, port = server.address
            async with ScanClient(host, port) as client:
                for _ in range(2):
                    with pytest.raises(ServerFault) as info:
                        await client.open_beam_flow("cd" * 32, 1)
                    assert info.value.code == ErrorCode.UNKNOWN_VOCAB
            assert len(server._mask_misses) == 1

    run(main())


# ----------------------------------------------------------------------
def test_load_generator_verifies_byte_for_byte(table):
    """The acceptance check: the beam load generator at width 1 —
    every remote reply equals the in-process session, over real TCP."""

    async def main():
        async with running_server(mask_tables=[table]) as server:
            host, port = server.address
            report = await run_beam_load(
                host, port, table, beams=3, width=1, steps=25
            )
        assert report["verified"] is True
        assert report["failures"] == []
        assert report["mismatches"] == []
        assert report["ops"] > 0

    run(main())


def test_decode_and_scan_flows_share_a_connection(table, streams, expected):
    """A single-lane decode and a scan multiplex one connection, each
    answered exactly."""

    async def main():
        async with running_server(mask_tables=[table]) as server:
            host, port = server.address
            local = MaskSession(table)
            async with ScanClient(host, port) as client:
                flow = await client.open_beam_flow(table.vocab_hash, 1)
                scan = await client.open_flow()
                await scan.send(streams["flow-0"])
                assert flow.rows == [local.mask()]
                token_id = set_bits(local.mask())[0]
                states, rows = await flow.advance([token_id])
                assert states == (local.advance(token_id),)
                assert rows == [local.mask()]
                results = await scan.finish()
                assert results == expected["flow-0"]
                await flow.close()
            snapshot = server.stats()
            assert snapshot["structgen"]["beams_open"] == 0

    run(main())
