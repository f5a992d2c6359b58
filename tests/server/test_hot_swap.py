"""Grammar hot-swap on the serving edge.

A swap must route *new* OPEN_FLOWs to the new artifact while flows
already open finish on the generation (plan, tables, pool) they
started with — zero failed flows. Also covered: the admin
``POST /swap`` route, the HELLO grammar advertisement, generation
retirement, and per-ref quotas (``ERROR(OVERLOADED)``).
"""

import asyncio

import pytest

from repro.grammar.examples import if_then_else, xmlrpc
from repro.server.client import ScanClient
from repro.server.protocol import ErrorCode, ServerFault
from repro.service import Registry, TaggerSpec
from tests.server.conftest import running_server

XML_HEAD = b"<methodCall><methodName>add</methodName>"
XML_TAIL = b"</methodCall>"
ITE_DATA = b"if true then go else stop"
MESSAGE = XML_HEAD + b"<params></params>" + XML_TAIL
#: Messages behind and between junk: only a router whose start
#: tokenizers re-arm (``start_mode="always"``) finds both.
WIRED = b"xx" + MESSAGE + b" junk " + MESSAGE + b" "


def run(coro):
    return asyncio.run(coro)


@pytest.fixture()
def registry(tmp_path):
    reg = Registry(str(tmp_path / "store"))
    reg.xml_ref = reg.publish("xmlrpc", xmlrpc())
    reg.ite_ref = reg.publish("ifelse", if_then_else())
    return reg


def _spec(registry, ref) -> TaggerSpec:
    return TaggerSpec(registry_ref=ref, registry_root=registry.root)


def _expected(registry, ref, *chunks) -> str:
    session = _spec(registry, ref).build().stream()
    items = []
    for chunk in chunks:
        items.extend(session.feed(chunk))
    items.extend(session.finish())
    return repr(items)


async def _wait_open_flows(server, n: int) -> None:
    for _ in range(1000):
        if sum(len(c.flows) for c in server._connections.values()) >= n:
            return
        await asyncio.sleep(0.005)
    raise AssertionError(f"never saw {n} open flow(s) server-side")


async def _admin(address, method: str, path: str) -> tuple[str, str]:
    """One admin request, reading the body by Content-Length."""
    reader, writer = await asyncio.open_connection(*address)
    writer.write(f"{method} {path} HTTP/1.0\r\nHost: x\r\n\r\n".encode())
    await writer.drain()
    status_line = (await reader.readline()).decode()
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    body = (await reader.readexactly(length)).decode()
    writer.close()
    return status_line.split(" ", 1)[1].strip(), body


# ----------------------------------------------------------------------
def test_swap_pins_inflight_flows_to_their_generation(registry):
    async def main():
        async with running_server(
            spec=_spec(registry, registry.xml_ref), registry=registry
        ) as server:
            host, port = server.address
            async with ScanClient(host, port) as client:
                old = await client.open_flow()
                await old.send(XML_HEAD)  # mid-stream when the swap hits
                await _wait_open_flows(server, 1)

                info = server.swap_grammar(registry.ite_ref)
                assert info["grammar"] == registry.ite_ref
                assert info["previous"] == registry.xml_ref
                assert info["draining"] == 1

                new = await client.open_flow()
                await new.send(ITE_DATA)
                old_items = repr(await old.finish())
                new_items = repr(await new.finish())

            assert old_items == _expected(
                registry, registry.xml_ref, XML_HEAD
            ), "in-flight flow drifted off the plan it started on"
            assert new_items == _expected(
                registry, registry.ite_ref, ITE_DATA
            ), "post-swap flow not served by the new grammar"
            # The drained generation was retired.
            assert [g.ref for g in server._generations.values()] == [
                registry.ite_ref
            ]
            snapshot = server.stats()
            assert snapshot["counters"]["server.swaps"] == 1
            assert snapshot["counters"]["server.swaps.retired"] == 1
            tenants = {
                k: v for k, v in snapshot["counters"].items()
                if k.startswith("tenant.")
            }
            assert tenants[f"tenant.{registry.xml_ref}.flows_finished"] == 1
            assert tenants[f"tenant.{registry.ite_ref}.flows_finished"] == 1

    run(main())


def test_swap_back_reuses_generation_still_draining(registry):
    async def main():
        async with running_server(
            spec=_spec(registry, registry.xml_ref), registry=registry
        ) as server:
            host, port = server.address
            async with ScanClient(host, port) as client:
                flow = await client.open_flow()
                await flow.send(XML_HEAD)  # keeps generation 1 alive
                await _wait_open_flows(server, 1)
                first = server._current
                server.swap_grammar(registry.ite_ref)
                assert server._current is not first
                # Swapping back mid-drain must reattach to the still-
                # live original generation, not build a third one.
                server.swap_grammar(registry.xml_ref)
                assert server._current is first
                assert len(server._generations) == 1
                await flow.finish()

    run(main())


def test_hello_advertises_registry_grammars(registry):
    async def main():
        async with running_server(
            spec=_spec(registry, registry.xml_ref), registry=registry
        ) as server:
            host, port = server.address
            async with ScanClient(host, port) as client:
                assert client.server_grammars[0] == registry.xml_ref
                assert registry.ite_ref in client.server_grammars

    run(main())


def test_hello_without_registry_stays_bare(registry):
    async def main():
        async with running_server() as server:
            host, port = server.address
            async with ScanClient(host, port) as client:
                assert client.server_grammars == ()

    run(main())


def test_quota_refuses_flows_past_the_limit(registry):
    async def main():
        async with running_server(
            spec=_spec(registry, registry.xml_ref),
            registry=registry,
            quotas={registry.xml_ref: 1},
        ) as server:
            host, port = server.address
            async with ScanClient(host, port) as client:
                first = await client.open_flow()
                await first.send(XML_HEAD)
                await _wait_open_flows(server, 1)
                second = await client.open_flow()
                with pytest.raises(ServerFault) as excinfo:
                    await second.send(b"x")
                    await second.finish(timeout=5)
                assert excinfo.value.code == ErrorCode.OVERLOADED
                # The refused flow freed nothing it never held: once
                # the first finishes, the quota slot opens again.
                await first.finish()
                third = await client.open_flow()
                await third.send(XML_HEAD)
                await third.finish()

    run(main())


@pytest.mark.parametrize("second", ["scan", "mask", "beam"])
def test_quota_counts_and_refuses_every_kind(registry, second):
    """Admission is one check: an idle single-lane decode holds its
    grammar's one quota slot, and the next open — a scan, a one-lane
    ("mask") or a wider beam — is OVERLOADED (decode opens used to
    take slots but never be refused)."""
    from repro.apps.structgen import build_mask_table, synthetic_vocab

    table = build_mask_table(xmlrpc(), synthetic_vocab(size=384, seed=7))

    async def main():
        async with running_server(
            spec=_spec(registry, registry.xml_ref),
            registry=registry,
            quotas={registry.xml_ref: 1},
            mask_tables=[table],
        ) as server:
            async with ScanClient(*server.address) as client:
                held = await client.open_beam_flow(table.vocab_hash, 1)
                assert server._tenant_open(registry.xml_ref) == 1
                with pytest.raises(ServerFault) as excinfo:
                    if second == "scan":
                        flow = await client.open_flow()
                        await flow.finish(timeout=5)
                    else:
                        width = 1 if second == "mask" else 2
                        await client.open_beam_flow(table.vocab_hash, width)
                assert excinfo.value.code == ErrorCode.OVERLOADED
                assert server._tenant_open(registry.xml_ref) == 1
                await held.close()
                assert server._tenant_open(registry.xml_ref) == 0

    run(main())


def test_admin_swap_routes(registry):
    async def main():
        async with running_server(
            spec=_spec(registry, registry.xml_ref),
            registry=registry,
            admin_port=0,
        ) as server:
            status, body = await _admin(
                server.admin_address, "POST",
                f"/swap?grammar={registry.ite_ref}",
            )
            assert status == "200 OK"
            assert f'"grammar": "{registry.ite_ref}"' in body
            assert server._current.ref == registry.ite_ref

            status, body = await _admin(
                server.admin_address, "POST", "/swap"
            )
            assert status == "400 Bad Request"

            status, body = await _admin(
                server.admin_address, "GET", "/swap?grammar=x"
            )
            assert status == "405 Method Not Allowed"

            status, body = await _admin(
                server.admin_address, "POST", "/swap?grammar=ghost@9"
            )
            assert status == "409 Conflict"
            assert server._current.ref == registry.ite_ref

    run(main())


def test_swap_without_registry_is_refused():
    async def main():
        async with running_server(admin_port=0) as server:
            status, body = await _admin(
                server.admin_address, "POST", "/swap?grammar=x@1"
            )
            assert status == "409 Conflict"
            assert "registry" in body

    run(main())


def test_each_ref_loads_once_per_process(registry, monkeypatch):
    """A registry-backed server builds each generation from the
    artifact its registry loaded: one blob load per ref, at start and
    on every swap, and the generation scans on that artifact's
    grammar object."""
    from repro.server.server import ScanServer
    from repro.service import registry as store

    loads = []
    load_artifact = store.load_artifact
    monkeypatch.setattr(
        store, "load_artifact",
        lambda blob: loads.append(1) or load_artifact(blob),
    )
    server = ScanServer(
        TaggerSpec(),
        registry=Registry(registry.root),
        grammar=registry.xml_ref,
    )

    def served(ref):
        artifact = server._registry.load(ref)
        return server._scan_tagger().grammar is artifact.grammar

    assert len(loads) == 1 and served(registry.xml_ref)
    server.swap_grammar(registry.ite_ref)
    assert len(loads) == 2 and served(registry.ite_ref)
    server.swap_grammar(registry.xml_ref)  # the first generation retired
    assert len(loads) == 2 and served(registry.xml_ref)


def test_served_ref_routes_on_its_published_wiring(registry):
    """A RouterSpec served by ref, at start or after a hot swap, routes
    on the artifact's wiring as well as its grammar."""
    from repro.apps.xmlrpc.router import ContentBasedRouter
    from repro.core.options import TaggerOptions, WiringOptions
    from repro.core.tagger import BehavioralTagger
    from repro.service import RouterSpec

    always = TaggerOptions(wiring=WiringOptions(start_mode="always"))
    ref = registry.publish("xmlrpc", xmlrpc(), always)
    router = ContentBasedRouter(tagger=BehavioralTagger(xmlrpc(), always))
    session = router.stream()
    expected = session.feed(WIRED) + session.finish()
    assert len(expected) == 2

    async def routed(server):
        async with ScanClient(*server.address) as client:
            flow = await client.open_flow()
            await flow.send(WIRED)
            return await flow.finish()

    async def main():
        async with running_server(
            spec=RouterSpec(), registry=registry, grammar=ref
        ) as server:
            assert await routed(server) == expected
        async with running_server(
            spec=RouterSpec(), registry=registry, grammar=registry.xml_ref
        ) as server:
            server.swap_grammar(ref)
            assert await routed(server) == expected

    run(main())
