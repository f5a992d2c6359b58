"""One lifecycle conformance suite, two targets.

Every scenario speaks raw frames at a bare :class:`ScanServer` and,
unchanged, at a :class:`ScanProxy` in front of one — before and after a
grammar hot swap on the server — and reports ``(error code, flow
closed?)``. Both targets must report the literal expectation, so they
report the same thing: the server/proxy divergences this replaces
tests for (duplicate open, wrong-kind ops) cannot come back on one
side only.
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
        if kind == "mask":
            return protocol.encode_open_mask(flow_id, self.table.vocab_hash)
        return protocol.encode_open_beam(flow_id, 2, self.table.vocab_hash)

    def op(self, ftype: int, token: int | None = None) -> bytes:
        token = self.good if token is None else token
        if ftype == FrameType.DATA:
            return protocol.encode_data(FLOW, b"<methodCall>")
        if ftype == FrameType.ADVANCE:
            return protocol.encode_advance(FLOW, token)
        return protocol.encode_batch_advance(
            FLOW, BeamOp.ADVANCE, [token, token]
        )

    async def open(self, kind: str) -> None:
        """Open flow 7 and, where the kind answers its opener, wait
        for that first MASK / MASKS."""
        await self.send(self.opener(kind))
        if kind != "scan":
            frame = await self.reply()
            assert frame.type in (FrameType.MASK, FrameType.MASKS)


# ----------------------------------------------------------------------
# scenarios: each returns (error code, is flow 7 closed afterwards?)
# ----------------------------------------------------------------------
def duplicate_open(kind):
    async def scenario(peer, _front):
        await peer.open(kind)
        await peer.send(peer.opener(kind))
        return await peer.error(), await peer.closed()

    return scenario


def unknown_flow(ftype):
    async def scenario(peer, _front):
        frame = (
            protocol.encode_finish_flow(FLOW)
            if ftype == FrameType.FINISH_FLOW
            else peer.op(ftype)
        )
        await peer.send(frame)
        return await peer.error(), await peer.closed()

    return scenario


def wrong_kind(kind, ftype):
    async def scenario(peer, _front):
        await peer.open(kind)
        await peer.send(peer.op(ftype))
        return await peer.error(), await peer.closed()

    return scenario


async def op_after_finish(peer, _front):
    await peer.send(
        peer.opener("scan"),
        protocol.encode_finish_flow(FLOW),
        peer.op(FrameType.DATA),
    )
    # The final RESULT and the ERROR come in either order.
    seen = {(await peer.reply()).type, (await peer.reply()).type}
    assert seen == {FrameType.RESULT, FrameType.ERROR}
    await peer.send(peer.op(FrameType.DATA))
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
        ftype = FrameType.ADVANCE if kind == "mask" else FrameType.BATCH_ADVANCE
        await peer.send(peer.op(ftype, peer.bad))
        return await peer.error(), await peer.closed()

    return scenario


E = ErrorCode
KINDS = ("scan", "mask", "beam")
OPS = {
    "scan": FrameType.DATA,
    "mask": FrameType.ADVANCE,
    "beam": FrameType.BATCH_ADVANCE,
}
SCENARIOS = {
    **{
        f"duplicate-open/{kind}": (duplicate_open(kind), E.DUPLICATE_FLOW, True)
        for kind in KINDS
    },
    **{
        f"unknown-flow/{FrameType.NAMES[ftype]}": (
            unknown_flow(ftype), E.UNKNOWN_FLOW, True,
        )
        for ftype in (*OPS.values(), FrameType.FINISH_FLOW)
    },
    **{
        f"wrong-kind/{FrameType.NAMES[ftype]}-on-{kind}": (
            wrong_kind(kind, ftype), E.BAD_FRAME, True,
        )
        for kind in KINDS
        for other, ftype in OPS.items()
        if other != kind
    },
    "op-after-finish": (op_after_finish, E.UNKNOWN_FLOW, True),
    **{
        f"open-while-draining/{kind}": (
            open_while_draining(kind), E.DRAINING, True,
        )
        for kind in KINDS
    },
    "bad-token/mask": (bad_token("mask"), E.BAD_TOKEN, True),
    "bad-token/beam": (bad_token("beam"), E.BAD_TOKEN, False),
}


@contextlib.asynccontextmanager
async def target(name: str, registry, table, swapped: bool):
    """``front`` is what the client dials: the server itself, or a
    proxy whose one backend the server is."""
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
        yield front
    finally:
        if front is not server:
            await front.stop(drain=False)
        await server.stop(drain=False)


@pytest.mark.parametrize("swapped", [False, True], ids=["", "after-swap"])
@pytest.mark.parametrize("name", ["server", "proxy"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_lifecycle_conformance(scenario, name, swapped, registry, table):
    run, code, closed = SCENARIOS[scenario]

    async def main():
        async with target(name, registry, table, swapped) as front:
            reader, writer = await asyncio.open_connection(*front.address)
            peer = Peer(reader, writer, table)
            await peer.send(protocol.encode_hello())
            hello = await asyncio.wait_for(peer.frames.frame(), 5.0)
            assert hello.type == FrameType.HELLO
            try:
                return await run(peer, front)
            finally:
                writer.close()

    got_code, got_closed = asyncio.run(main())
    assert (E.NAMES[got_code], got_closed) == (E.NAMES[code], closed)
