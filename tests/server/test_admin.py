"""The plaintext admin endpoint: /metrics exposition, /healthz, /stats
JSON, and 404 discipline — plus the closed-loop load generator."""

import asyncio
import json

from repro.server import ScanClient

from tests.core.test_nativescan import _base64_stream, needs_native
from tests.server.conftest import running_server
from tests.server.drivers import run_load


def run(coro):
    return asyncio.run(coro)


async def _http_get(address, path: str) -> tuple[str, str]:
    reader, writer = await asyncio.open_connection(*address)
    writer.write(f"GET {path} HTTP/1.0\r\nHost: x\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _sep, body = raw.decode("utf-8").partition("\r\n\r\n")
    status = head.splitlines()[0].split(" ", 1)[1]
    return status, body


# ----------------------------------------------------------------------
def test_metrics_endpoint_serves_prometheus_text(streams):
    async def main():
        async with running_server(admin_port=0) as server:
            host, port = server.address
            async with ScanClient(host, port) as client:
                await client.scan_stream(streams["flow-0"], 256)
            status, body = await _http_get(server.admin_address, "/metrics")
        assert status == "200 OK"
        assert "# TYPE repro_server_flows_opened counter" in body
        assert "repro_server_flows_finished 1" in body
        assert 'repro_latency_flow_s_bucket{le="+Inf"} 1' in body
        assert "repro_server_connections_open 0" in body  # gauge

    run(main())


def test_healthz_and_stats_and_404():
    async def main():
        async with running_server(admin_port=0) as server:
            status, body = await _http_get(server.admin_address, "/healthz")
            assert (status, body) == ("200 OK", "ok\n")
            status, body = await _http_get(server.admin_address, "/stats")
            assert status == "200 OK"
            stats = json.loads(body)
            assert "counters" in stats and "histograms" in stats
            status, _body = await _http_get(server.admin_address, "/nope")
            assert status == "404 Not Found"

    run(main())


# ----------------------------------------------------------------------
def test_load_generator_closed_loop_verifies(streams):
    """run_load drives a live server and verifies byte-for-byte
    against in-process routing — the network-level differential."""

    async def main():
        async with running_server() as server:
            host, port = server.address
            report = await run_load(
                host, port,
                flows=4, messages=12, chunk=256,
                concurrency=2, seed=123,
            )
        assert report["verified"] is True
        assert report["failures"] == []
        assert report["bytes"] > 0 and report["flows"] == 4

    run(main())


def test_native_engine_server_answers_stats_and_metrics():
    """/stats names the engine the served tagger runs, and says whether
    its kernel is live; neither route drops the connection."""
    from repro.core.nativescan import NativeTagger
    from repro.grammar.examples import xmlrpc
    from repro.service import RouterSpec

    async def main():
        async with running_server(
            spec=RouterSpec(engine="native"), admin_port=0
        ) as server:
            status, body = await _http_get(server.admin_address, "/stats")
            assert status == "200 OK"
            engine = json.loads(body)["engine"]
            assert engine["name"] == "native"
            live = NativeTagger(xmlrpc()).native_active
            assert engine["native_active"] is live
            status, body = await _http_get(server.admin_address, "/metrics")
            assert status == "200 OK"
            assert "repro_server_connections_open 0" in body

    run(main())


@needs_native
def test_native_server_publishes_skip_counters_as_scan():
    """A native server's skip counters are the kernel's, so /stats
    names them ``scan.*``: a Base64-heavy flow is almost all skipped,
    and no key names the vector engine ``serve`` never runs."""
    from repro.service import RouterSpec

    async def main():
        async with running_server(
            spec=RouterSpec(engine="native"), admin_port=0
        ) as server:
            host, port = server.address
            async with ScanClient(host, port) as client:
                assert await client.scan_stream(_base64_stream(seed=41), 4096)
            _status, body = await _http_get(server.admin_address, "/stats")
        stats = json.loads(body)
        assert stats["engine"]["native_active"] is True
        assert stats["gauges"]["scan.skip_ratio"] > 0
        assert stats["counters"]["scan.bytes_scanned"] > 0
        assert not [
            name
            for kind in ("counters", "gauges", "histograms")
            for name in stats[kind]
            if name.startswith("vector.")
        ]

    run(main())
