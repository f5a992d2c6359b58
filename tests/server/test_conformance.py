"""One lifecycle conformance suite, two targets.

Every scenario speaks raw frames at a bare :class:`ScanServer` and,
unchanged, at a :class:`ScanProxy` in front of one — before and after a
grammar hot swap on the server — and reports ``(error code, flow
closed?)``. Both targets must report the literal expectation, so they
report the same thing: the server/proxy divergences this replaces
tests for (duplicate open, wrong-kind ops) cannot come back on one
side only. Through the proxy, a scenario on a scan flow runs where a
client runs one — on the ring member the proxy's HELLO names — and a
raw scan OPEN_FLOW at the proxy itself is refused with ``REDIRECT``.

The scenario kinds are ``scan``, ``mask`` — a single-lane decode, a
beam of width 1 advanced by one-token BATCH_ADVANCEs (labelled
``ADVANCE``, after ``BeamOp.ADVANCE``) — and ``beam``, of width 2.
``mask`` and ``beam`` are one flow kind on the wire, so an advance of
the other's width is a survivable BAD_TOKEN, not a BAD_FRAME.
"""

import asyncio
import contextlib

import pytest

from repro.apps.structgen import build_mask_table, synthetic_vocab
from repro.grammar.examples import if_then_else, xmlrpc
from repro.server import ScanProxy, ScanServer, protocol
from repro.server.protocol import BeamOp, ErrorCode, FrameType
from repro.service import Registry, TaggerSpec
from tests.server.conftest import FrameReader

FLOW = 7


@pytest.fixture(scope="module")
def table():
    return build_mask_table(xmlrpc(), synthetic_vocab(size=384, seed=7))


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    reg = Registry(str(tmp_path_factory.mktemp("store")))
    reg.xml_ref = reg.publish("xmlrpc", xmlrpc())
    reg.ite_ref = reg.publish("ifelse", if_then_else())
    return reg


class Peer:
    """A client speaking frames by hand, remembering what came back."""

    def __init__(self, reader, writer, table) -> None:
        self.frames = FrameReader(reader)
        self.writer = writer
        self.table = table
        row = table.mask_row(0)
        #: A token the start state takes, and one it refuses.
        self.good, self.bad = (
            next(t for t in range(384) if (row[t // 8] >> (t % 8) & 1) == bit)
            for bit in (1, 0)
        )

    async def send(self, *frames: bytes) -> None:
        self.writer.write(b"".join(frames))
        await self.writer.drain()

    async def reply(self, flow_id: int = FLOW):
        """The next frame addressed to ``flow_id``."""
        while True:
            frame = await asyncio.wait_for(self.frames.frame(), 5.0)
            assert frame is not None, "connection closed"
            if int.from_bytes(frame.payload[:4], "big") == flow_id:
                return frame

    async def error(self, flow_id: int = FLOW) -> int:
        """The code of the next ERROR addressed to ``flow_id``."""
        while True:
            frame = await self.reply(flow_id)
            if frame.type == FrameType.ERROR:
                return protocol.decode_error(frame)[1]

    async def closed(self, flow_id: int = FLOW) -> bool:
        """Probe: FINISH_FLOW is UNKNOWN_FLOW on a closed flow and
        earns the final RESULT on an open one."""
        await self.send(protocol.encode_finish_flow(flow_id))
        while True:
            frame = await self.reply(flow_id)
            if frame.type == FrameType.ERROR:
                assert protocol.decode_error(frame)[1] == ErrorCode.UNKNOWN_FLOW
                return True
            if frame.type == FrameType.RESULT and frame.payload[4]:
                return False

    def opener(self, kind: str, flow_id: int = FLOW) -> bytes:
        if kind == "scan":
            return protocol.encode_open_flow(flow_id)
        return protocol.encode_open_beam(
            flow_id, WIDTH[kind], self.table.vocab_hash
        )

    def op(self, label: str, token: int | None = None) -> bytes:
        token = self.good if token is None else token
        if label == "DATA":
            return protocol.encode_data(FLOW, b"<methodCall>")
        return protocol.encode_batch_advance(
            FLOW, BeamOp.ADVANCE, [token] * (1 if label == "ADVANCE" else 2)
        )

    async def open(self, kind: str) -> None:
        """Open flow 7 and, where the kind answers its opener, wait
        for that first MASKS."""
        await self.send(self.opener(kind))
        if kind != "scan":
            frame = await self.reply()
            assert frame.type == FrameType.MASKS


# ----------------------------------------------------------------------
# scenarios: each returns (error code, is flow 7 closed afterwards?)
# ----------------------------------------------------------------------
def duplicate_open(kind):
    async def scenario(peer, _front):
        await peer.open(kind)
        await peer.send(peer.opener(kind))
        return await peer.error(), await peer.closed()

    return scenario


def unknown_flow(label):
    async def scenario(peer, _front):
        frame = (
            protocol.encode_finish_flow(FLOW)
            if label == "FINISH_FLOW"
            else peer.op(label)
        )
        await peer.send(frame)
        return await peer.error(), await peer.closed()

    return scenario


def wrong_kind(kind, label):
    async def scenario(peer, _front):
        await peer.open(kind)
        await peer.send(peer.op(label))
        return await peer.error(), await peer.closed()

    return scenario


async def op_after_finish(peer, _front):
    await peer.send(
        peer.opener("scan"),
        protocol.encode_finish_flow(FLOW),
        peer.op("DATA"),
    )
    # The final RESULT and the ERROR come in either order.
    seen = {(await peer.reply()).type, (await peer.reply()).type}
    assert seen == {FrameType.RESULT, FrameType.ERROR}
    await peer.send(peer.op("DATA"))
    return await peer.error(), await peer.closed()


def open_while_draining(kind):
    async def scenario(peer, front):
        # The endpoint's own drain flag, without the shutdown that
        # normally follows it.
        front._draining = True
        await peer.send(peer.opener(kind))
        return await peer.error(), await peer.closed()

    return scenario


def bad_token(kind):
    async def scenario(peer, _front):
        await peer.open(kind)
        await peer.send(peer.op(OPS[kind], peer.bad))
        return await peer.error(), await peer.closed()

    return scenario


def retired(ftype):
    """A frame of a type protocol v3 retired: unassigned, so fatal to
    the connection — the ERROR addresses it, and it closes."""

    async def scenario(peer, _front):
        await peer.send(protocol.encode_frame(ftype, FLOW.to_bytes(4, "big")))
        code = await peer.error(protocol.CONNECTION_FLOW)
        assert await asyncio.wait_for(peer.frames.frame(), 5.0) is None
        return code, True

    return scenario


E = ErrorCode
KINDS = ("scan", "mask", "beam")
#: The scenarios whose flow is a scan flow (or whose op is DATA): a
#: proxy hands them to its ring.
ON_THE_RING = {
    "duplicate-open/scan",
    "unknown-flow/DATA",
    "wrong-kind/ADVANCE-on-scan",
    "wrong-kind/BATCH_ADVANCE-on-scan",
    "op-after-finish",
    "open-while-draining/scan",
}
WIDTH = {"mask": 1, "beam": 2}
OPS = {"scan": "DATA", "mask": "ADVANCE", "beam": "BATCH_ADVANCE"}
DECODE = {"mask", "beam"}
SCENARIOS = {
    **{
        f"duplicate-open/{kind}": (duplicate_open(kind), E.DUPLICATE_FLOW, True)
        for kind in KINDS
    },
    **{
        f"unknown-flow/{label}": (unknown_flow(label), E.UNKNOWN_FLOW, True)
        for label in (*OPS.values(), "FINISH_FLOW")
    },
    **{
        f"wrong-kind/{label}-on-{kind}": (
            (wrong_kind(kind, label), E.BAD_TOKEN, False)
            if {kind, other} == DECODE
            else (wrong_kind(kind, label), E.BAD_FRAME, True)
        )
        for kind in KINDS
        for other, label in OPS.items()
        if other != kind
    },
    "op-after-finish": (op_after_finish, E.UNKNOWN_FLOW, True),
    **{
        f"open-while-draining/{kind}": (
            open_while_draining(kind), E.DRAINING, True,
        )
        for kind in KINDS
    },
    "bad-token/mask": (bad_token("mask"), E.BAD_TOKEN, False),
    "bad-token/beam": (bad_token("beam"), E.BAD_TOKEN, False),
    **{
        f"retired/0x{ftype:02X}": (retired(ftype), E.BAD_FRAME, True)
        for ftype in (0x08, 0x09, 0x0A)
    },
}
assert ON_THE_RING <= SCENARIOS.keys()


@contextlib.asynccontextmanager
async def target(name: str, registry, table, swapped: bool):
    """``front`` is what the client dials: the server itself, or a
    proxy whose one backend the server is; the server comes along."""
    server = ScanServer(
        TaggerSpec(
            registry_ref=registry.xml_ref, registry_root=registry.root
        ),
        port=0,
        registry=registry,
        mask_tables=[table],
    )
    await server.start()
    front = server
    if name == "proxy":
        front = await ScanProxy([server.address], port=0).start()
    try:
        if swapped:
            server.swap_grammar(registry.ite_ref)
        yield front, server
    finally:
        if front is not server:
            await front.stop(drain=False)
        await server.stop(drain=False)


async def _greeted(address, table):
    """A Peer on a fresh connection to ``address``, past the
    handshake, and the ring the endpoint's HELLO handed out."""
    reader, writer = await asyncio.open_connection(*address)
    peer = Peer(reader, writer, table)
    await peer.send(protocol.encode_hello())
    hello = await asyncio.wait_for(peer.frames.frame(), 5.0)
    assert hello.type == FrameType.HELLO
    return peer, protocol.decode_hello_lists(hello)[1]


@pytest.mark.parametrize("swapped", [False, True], ids=["", "after-swap"])
@pytest.mark.parametrize("name", ["server", "proxy"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_lifecycle_conformance(scenario, name, swapped, registry, table):
    run, code, closed = SCENARIOS[scenario]

    async def main():
        async with target(name, registry, table, swapped) as (front, server):
            peer, ring = await _greeted(front.address, table)
            member = "%s:%d" % server.address
            assert ring == (None if front is server else (member,))
            if ring is not None and scenario in ON_THE_RING:
                peer.writer.close()  # and dial the ring, as a client does
                host, _, port = ring[0].rpartition(":")
                peer, _ = await _greeted((host, int(port)), table)
                front = server
            try:
                return await run(peer, front)
            finally:
                peer.writer.close()

    got_code, got_closed = asyncio.run(main())
    assert (E.NAMES[got_code], got_closed) == (E.NAMES[code], closed)


def test_scan_open_at_a_proxy_is_redirected_to_its_ring(registry, table):
    """A scan OPEN_FLOW sent to the proxy itself: ``REDIRECT`` naming
    the ring member, and no flow open — the connection goes on."""

    async def main():
        async with target("proxy", registry, table, False) as (front, server):
            peer, ring = await _greeted(front.address, table)
            await peer.send(peer.opener("scan"))
            frame = await peer.reply()
            _flow, code, message = protocol.decode_error(frame)
            assert "%s:%d" % server.address in message
            assert ring == ("%s:%d" % server.address,)
            closed = await peer.closed()
            await peer.open("beam")  # the connection still serves beams
            peer.writer.close()
            return code, closed

    code, closed = asyncio.run(main())
    assert (E.NAMES[code], closed) == ("REDIRECT", True)
