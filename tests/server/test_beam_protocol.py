"""Beam flows over the framed wire protocol.

The acceptance invariant: every MASKS reply a live ``ScanServer``
streams back over OPEN_BEAM/BATCH_ADVANCE — advances, forks, and
rollbacks, with lanes delta-encoded on the wire — reconstructs to
byte-for-byte what an in-process :class:`BeamMaskSession` (and N
independent :class:`MaskSession` mirrors) on the same table produces.
The client rebuilds the rows in one native call (``apply_masks``) or
on the portable twin; both run here and must agree on every frame,
malformed ones included.  Plus the frame codecs, the atomicity
contract (``BAD_TOKEN`` leaves the beam flow open), hot swap mid-beam
pinning, drain discipline, and the admin exposition of the
row-completion and beam telemetry.
"""

import asyncio
import json
import random
import struct
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.structgen import (
    MaskSession,
    build_mask_table,
    synthetic_vocab,
)
from repro.apps.structgen.beam import BeamMaskSession, apply_xor_patch
from repro.core import _native_build
from repro.grammar.examples import if_then_else, xmlrpc
from repro.server import ScanClient, protocol
from repro.server.client import BeamFlow
from repro.server.protocol import (
    MAX_BEAM_WIDTH,
    BeamOp,
    ErrorCode,
    Frame,
    FrameDecoder,
    FrameType,
    ProtocolError,
    ServerFault,
    decode_batch_advance,
    decode_masks,
    decode_open_beam,
    encode_batch_advance,
    encode_masks,
    encode_open_beam,
)
from repro.service import Registry, RouterSpec, TaggerSpec
from tests.server.conftest import running_server
from tests.server.drivers import run_beam_load, set_bits
from tests.server.test_hot_swap import _admin

VOCAB_HASH = "ab" * 32


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def table():
    return build_mask_table(xmlrpc(), synthetic_vocab(size=384, seed=7))


def decode_all(blob: bytes):
    return FrameDecoder(1 << 20).feed(blob)


# ----------------------------------------------------------------------
# frame codecs
# ----------------------------------------------------------------------
def test_open_beam_roundtrip():
    (frame,) = decode_all(encode_open_beam(7, 32, VOCAB_HASH))
    assert frame.type == FrameType.OPEN_BEAM
    assert decode_open_beam(frame) == (7, 32, VOCAB_HASH)
    with pytest.raises(ProtocolError):
        encode_open_beam(7, 0, VOCAB_HASH)
    with pytest.raises(ProtocolError):
        encode_open_beam(7, MAX_BEAM_WIDTH + 1, VOCAB_HASH)
    with pytest.raises(ProtocolError):
        encode_open_beam(7, 4, "ab" * 8)  # not a sha256 digest
    with pytest.raises(ProtocolError):
        decode_open_beam(Frame(FrameType.OPEN_BEAM, b"\x00\x01"))


def test_batch_advance_roundtrip():
    (frame,) = decode_all(encode_batch_advance(9, BeamOp.ADVANCE, [3, 1, 4]))
    assert frame.type == FrameType.BATCH_ADVANCE
    assert decode_batch_advance(frame) == (9, BeamOp.ADVANCE, (3, 1, 4))
    (frame,) = decode_all(encode_batch_advance(9, BeamOp.FORK, 2))
    assert decode_batch_advance(frame) == (9, BeamOp.FORK, 2)
    (frame,) = decode_all(encode_batch_advance(9, BeamOp.ROLLBACK, 5))
    assert decode_batch_advance(frame) == (9, BeamOp.ROLLBACK, 5)
    with pytest.raises(ProtocolError):
        encode_batch_advance(9, BeamOp.ADVANCE, [])
    with pytest.raises(ProtocolError):
        encode_batch_advance(9, 99, 1)
    # ADVANCE body must be a whole number of u32 token ids.
    bad = Frame(
        FrameType.BATCH_ADVANCE,
        struct.pack("!IB", 9, BeamOp.ADVANCE) + b"\x00\x00\x01",
    )
    with pytest.raises(ProtocolError):
        decode_batch_advance(bad)
    # FORK/ROLLBACK bodies are exactly one u32.
    bad = Frame(
        FrameType.BATCH_ADVANCE,
        struct.pack("!IB", 9, BeamOp.FORK) + b"\x00" * 8,
    )
    with pytest.raises(ProtocolError):
        decode_batch_advance(bad)


@pytest.mark.parametrize(
    "op,arg",
    [
        (BeamOp.ADVANCE, [-1]),
        (BeamOp.ADVANCE, [1 << 32]),
        (BeamOp.ADVANCE, [1.5]),
        (BeamOp.FORK, -1),
        (BeamOp.ROLLBACK, 1 << 40),
    ],
    ids=["advance-negative", "advance-u33", "advance-float", "fork-negative",
         "rollback-u41"],
)
def test_batch_advance_refuses_what_no_u32_holds(op, arg):
    """Every BATCH_ADVANCE argument is a u32 on the wire; one that is
    not is a ProtocolError at the encoder, not a struct.error."""
    with pytest.raises(ProtocolError, match="unencodable BATCH_ADVANCE"):
        encode_batch_advance(9, op, arg)


def test_masks_roundtrip_full_and_delta():
    row = bytes(range(48))
    patch = b"\x00\x05\xff" + b"\x00\x2e\x01"  # two 3-byte entries
    blob = encode_masks(4, 48, [(11, 0, row), (12, 1, patch)])
    (frame,) = decode_all(blob)
    assert frame.type == FrameType.MASKS
    flow_id, row_bytes, lanes = decode_masks(frame)
    assert (flow_id, row_bytes) == (4, 48)
    assert lanes == [(11, 0, row), (12, 1, patch)]
    # The delta lane is actually smaller on the wire than a full one.
    assert len(blob) < len(encode_masks(4, 48, [(11, 0, row)] * 2))
    with pytest.raises(ProtocolError):
        encode_masks(4, 48, [(11, 0, row[:-1])])  # short full row
    with pytest.raises(ProtocolError):
        encode_masks(4, 48, [(12, 1, b"\x00\x05")])  # not 3-byte entries
    with pytest.raises(ProtocolError):
        encode_masks(4, 48, [(12, 7, b"")])  # unknown kind
    # Truncated/overlong lane bodies are refused on decode.
    with pytest.raises(ProtocolError):
        decode_masks(Frame(FrameType.MASKS, frame.payload[:-1]))
    with pytest.raises(ProtocolError):
        decode_masks(Frame(FrameType.MASKS, bytes(frame.payload) + b"\x00"))


U32 = st.integers(0, 2**32 - 1)


@st.composite
def _masks_shape(draw):
    rb = draw(st.integers(1, 40))
    full = st.tuples(U32, st.just(0), st.binary(min_size=rb, max_size=rb))
    delta = st.tuples(
        U32,
        st.just(1),
        st.integers(0, 5).flatmap(
            lambda n: st.binary(min_size=3 * n, max_size=3 * n)
        ),
    )
    return rb, draw(st.lists(st.one_of(full, delta), max_size=6))


#: (encoder, its decoder, strategy for the encoder's arguments).
BEAM_CODECS = [
    (
        encode_open_beam,
        decode_open_beam,
        st.tuples(
            U32,
            st.integers(1, MAX_BEAM_WIDTH),
            st.binary(min_size=32, max_size=32).map(bytes.hex),
        ),
    ),
    (
        encode_batch_advance,
        decode_batch_advance,
        st.one_of(
            st.tuples(
                U32,
                st.just(BeamOp.ADVANCE),
                st.lists(U32, min_size=1, max_size=40).map(tuple),
            ),
            st.tuples(
                U32, st.sampled_from([BeamOp.FORK, BeamOp.ROLLBACK]), U32
            ),
        ),
    ),
    (
        encode_masks,
        decode_masks,
        _masks_shape().flatmap(
            lambda shape: st.tuples(U32, st.just(shape[0]), st.just(shape[1]))
        ),
    ),
]


@pytest.mark.parametrize(
    "encode,decode,values",
    BEAM_CODECS,
    ids=["OPEN_BEAM", "BATCH_ADVANCE", "MASKS"],
)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mangled_beam_frames_raise_protocol_error_only(
    encode, decode, values, data
):
    """Cut, grown, or with any byte changed, a beam frame is a
    ProtocolError or decodes to a value that encodes back to exactly
    the bytes received — never another exception, never a value the
    frame does not spell."""
    value = data.draw(values)
    (frame,) = decode_all(encode(*value))
    assert decode(frame) == value
    payload = bytes(frame.payload)
    at = data.draw(st.integers(0, len(payload) - 1))
    how = data.draw(st.sampled_from(["cut", "grow", "flip"]))
    if how == "cut":
        mangled = payload[:at]
    elif how == "grow":
        mangled = payload + data.draw(st.binary(min_size=1, max_size=9))
    else:
        flip = data.draw(st.integers(1, 255))
        mangled = (
            payload[:at] + bytes([payload[at] ^ flip]) + payload[at + 1 :]
        )
    try:
        got = decode(Frame(frame.type, mangled))
    except ProtocolError:
        return
    (again,) = decode_all(encode(*got))
    assert again.payload == mangled


@st.composite
def _masks_reply(draw):
    """A valid MASKS frame and the previous rows it patches: delta
    lanes only where a previous row exists, every entry inside it."""
    rb = draw(st.integers(1, 40))
    prev = draw(st.lists(st.binary(min_size=rb, max_size=rb), max_size=6))
    lanes = []
    for lane in range(draw(st.integers(0, 6))):
        if lane < len(prev) and draw(st.booleans()):
            at = draw(st.lists(st.integers(0, rb - 1), max_size=5))
            body = b"".join(
                i.to_bytes(2, "big") + bytes([draw(st.integers(1, 255))])
                for i in at
            )
            lanes.append((draw(U32), 1, body))
        else:
            row = draw(st.binary(min_size=rb, max_size=rb))
            lanes.append((draw(U32), 0, row))
    return encode_masks(draw(U32), rb, lanes), prev


@settings(max_examples=300, deadline=None)
@given(reply=_masks_reply(), data=st.data())
def test_mangled_masks_apply_the_same_on_both_paths(reply, data):
    """The client's apply — one kernel call, or the portable twin — on
    a valid MASKS frame that is then cut, grown or has one byte
    flipped: a ProtocolError on both, or equal states, rows and
    ``(n_full, n_delta, body_bytes)``.  Untouched, both rebuild what
    ``decode_masks`` + ``apply_xor_patch`` spell."""
    if _native_build.load_kernel() is None:
        pytest.skip("native module unavailable (no compiler)")
    blob, prev = reply
    (frame,) = decode_all(blob)
    payload = bytes(frame.payload)
    at = data.draw(st.integers(0, len(payload) - 1))
    how = data.draw(st.sampled_from(["keep", "cut", "grow", "flip"]))
    if how == "cut":
        payload = payload[:at]
    elif how == "grow":
        payload += data.draw(st.binary(min_size=1, max_size=9))
    elif how == "flip":
        flip = data.draw(st.integers(1, 255))
        payload = payload[:at] + bytes([payload[at] ^ flip]) + payload[at + 1 :]
    outcomes = []
    for apply in (protocol.apply_masks, protocol._apply_masks_portable):
        try:
            outcomes.append(apply(Frame(FrameType.MASKS, payload), prev))
        except ProtocolError:
            outcomes.append(ProtocolError)
    assert outcomes[0] == outcomes[1]
    if how == "keep":
        _fid, _rb, lanes = decode_masks(frame)
        assert outcomes[0] == (
            tuple(state for state, _kind, _body in lanes),
            [
                apply_xor_patch(prev[lane], body) if kind else body
                for lane, (_state, kind, body) in enumerate(lanes)
            ],
            sum(1 for _s, kind, _b in lanes if not kind),
            sum(kind for _s, kind, _b in lanes),
            sum(len(body) for _s, _kind, body in lanes),
        )


@pytest.mark.parametrize("apply_path", ["kernel", "portable"])
def test_beam_flow_refuses_what_it_cannot_patch(apply_path, monkeypatch):
    """A delta entry past the row's end, and a delta lane the client
    holds no previous row for, are ProtocolErrors out of
    ``BeamFlow._on_reply`` — not an IndexError the connection would
    report untyped — and leave the flow's rows as they were."""
    if apply_path == "portable":
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    elif _native_build.load_kernel() is None:
        pytest.skip("native module unavailable (no compiler)")
    rb = 4

    def masks(*lanes):
        (frame,) = decode_all(encode_masks(1, rb, list(lanes)))
        return frame

    async def main():
        flow = BeamFlow(ScanClient(), 1)
        flow._on_reply(masks((5, 0, b"\x01\x02\x03\x04"), (6, 0, b"\0" * 4)))
        before = (flow.states, flow.rows)
        with pytest.raises(ProtocolError, match="MASKS delta"):
            flow._on_reply(masks((5, 1, b"\x00\x04\x01"), (6, 0, b"\0" * 4)))
        with pytest.raises(ProtocolError, match="MASKS delta"):
            flow._on_reply(
                masks((5, 0, b"\0" * 4), (6, 0, b"\0" * 4), (7, 1, b""))
            )
        assert (flow.states, flow.rows) == before
        flow._on_reply(masks((5, 1, b"\x00\x03\xff"), (6, 0, b"\0" * 4)))
        assert flow.rows == [b"\x01\x02\x03\xfb", b"\0" * 4]
        assert (flow.lanes_full, flow.lanes_delta, flow.payload_bytes) == (
            3, 1, 15
        )

    run(main())


# ----------------------------------------------------------------------
# server round trips
# ----------------------------------------------------------------------
def _apply_paths(monkeypatch):
    """The client's MASKS apply on the kernel when the native module
    builds here, then on the portable twin (``REPRO_DISABLE_NATIVE``,
    which puts the in-process server's encoder and beams on their
    portable paths too)."""
    if _native_build.load_kernel() is not None:
        yield "kernel"
    monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    yield "portable"


def test_beam_flow_matches_local_sessions(table, monkeypatch):
    """Seeded beam decode over TCP — advances, forks, rollbacks —
    byte-identical to in-process mirrors after delta reconstruction,
    on both client apply paths, with the same wire accounting."""

    async def main():
        async with running_server(mask_tables=[table]) as server:
            host, port = server.address
            local = BeamMaskSession(table, 3)
            mirror = [MaskSession(table) for _ in range(3)]
            n = len(table.vocab)
            rng = random.Random(17)
            async with ScanClient(host, port) as client:
                flow = await client.open_beam_flow(table.vocab_hash, 3)
                assert flow.states == local.states
                assert flow.rows == local.masks()
                for _ in range(40):
                    roll = rng.random()
                    if roll < 0.12 and flow.width < 8:
                        lane = rng.randrange(flow.width)
                        states, rows = await flow.fork(lane)
                        local.fork(lane)
                        twin = MaskSession(table)
                        twin.state = mirror[lane].state
                        mirror.append(twin)
                    elif roll < 0.22 and local._history:
                        states, rows = await flow.rollback(1)
                        local.rollback(1)
                        mirror = [MaskSession(table) for _ in local.states]
                        for m, s in zip(mirror, local.states):
                            m.state = s
                    else:
                        ids = []
                        for m in mirror:
                            valid = set_bits(m.mask())
                            if not valid:
                                ids = None
                                break
                            ids.append(rng.choice(valid))
                        if ids is None:
                            break
                        states, rows = await flow.advance(ids)
                        local.advance(ids)
                        for m, t in zip(mirror, ids):
                            m.advance(t)
                    assert states == local.states
                    assert states == tuple(m.state for m in mirror)
                    assert rows == local.masks()
                    assert rows == [bytes(m.mask()) for m in mirror]
                # Delta encoding actually engaged on this flow.
                assert flow.lanes_delta > 0
                await flow.close()
            snapshot = server.stats()
            assert snapshot["counters"]["structgen.beams_opened"] == 1
            assert snapshot["counters"]["structgen.beams_closed"] == 1
            assert snapshot["counters"]["structgen.beam_lanes_delta"] > 0
            assert snapshot["structgen"]["beams_open"] == 0
            return flow.lanes_full, flow.lanes_delta, flow.payload_bytes

    accounts = {path: run(main()) for path in _apply_paths(monkeypatch)}
    assert len(set(accounts.values())) == 1, accounts


def test_beam_load_generator_verifies_byte_for_byte(table, monkeypatch):
    """The acceptance check: the beam load generator's every remote
    reply — across forks, rollbacks, and dead-end reopens — equals
    the in-process mirrors, over real TCP, on both client apply paths
    and with the same wire accounting."""

    async def main():
        async with running_server(mask_tables=[table]) as server:
            host, port = server.address
            report = await run_beam_load(
                host, port, table, beams=2, width=4, steps=30
            )
        assert report["verified"] is True
        assert report["failures"] == []
        assert report["mismatches"] == []
        assert report["ops"] > 0 and report["lanes_delta"] > 0
        assert 0 < report["wire_payload_bytes"] <= report["wire_full_bytes"]
        return tuple(
            report[key]
            for key in ("ops", "lanes_full", "lanes_delta", "wire_payload_bytes")
        )

    accounts = {path: run(main()) for path in _apply_paths(monkeypatch)}
    assert len(set(accounts.values())) == 1, accounts


def test_bad_token_keeps_beam_flow_open(table):
    """The beam engine is atomic: a BAD_TOKEN fails only the offending
    request; the flow stays open on its previous states and the next
    valid advance works."""

    async def main():
        async with running_server(mask_tables=[table]) as server:
            host, port = server.address
            local = BeamMaskSession(table, 2)
            async with ScanClient(host, port) as client:
                flow = await client.open_beam_flow(table.vocab_hash, 2)
                valid = set_bits(bytearray(flow.rows[0]))
                invalid = next(
                    i
                    for i in range(len(table.vocab))
                    if i not in set(valid)
                )
                before = flow.states
                with pytest.raises(ServerFault) as info:
                    await flow.advance([valid[0], invalid], timeout=5.0)
                assert info.value.code == ErrorCode.BAD_TOKEN
                assert "lane 1" in str(info.value)
                assert flow.states == before
                # Ids are u32 on the wire; one no int32 holds is the
                # same refusal, not a fault that takes the flow down.
                with pytest.raises(ServerFault) as info:
                    await flow.advance([valid[0], 2**32 - 1], timeout=5.0)
                assert info.value.code == ErrorCode.BAD_TOKEN
                assert "lane 1" in str(info.value)
                states, rows = await flow.advance([valid[0], valid[0]])
                local.advance([valid[0], valid[0]])
                assert states == local.states
                assert rows == local.masks()
                await flow.close()
            snapshot = server.stats()
            assert snapshot["counters"]["structgen.beams_closed"] == 1

    run(main())


def test_data_on_beam_flow_rejected(table):
    async def main():
        async with running_server(mask_tables=[table]) as server:
            host, port = server.address
            async with ScanClient(host, port) as client:
                flow = await client.open_beam_flow(table.vocab_hash, 2)
                await client._send(
                    protocol.encode_data(flow.flow_id, b"<x>")
                )
                with pytest.raises(ServerFault) as info:
                    await flow.advance([0, 0], timeout=5.0)
                assert info.value.code == ErrorCode.BAD_FRAME

    run(main())


def test_unknown_vocab_refused_for_beam(table):
    async def main():
        async with running_server(mask_tables=[table]) as server:
            host, port = server.address
            async with ScanClient(host, port) as client:
                with pytest.raises(ServerFault) as info:
                    await client.open_beam_flow("cd" * 32, 4)
                assert info.value.code == ErrorCode.UNKNOWN_VOCAB

    run(main())


def test_oversized_rows_refused_at_open_beam(table):
    """MASKS carries ``row_bytes`` and delta offsets as u16: a table
    with wider rows (vocabulary > 524 280 tokens) is refused with a
    typed ERROR at OPEN_BEAM — no struct.error on the connection, no
    flow left behind, and the connection keeps serving."""

    class WideTable:
        vocab_hash = "ef" * 32
        row_bytes = protocol.MAX_MASKS_ROW_BYTES + 1
        vocab = range(row_bytes * 8)

    async def main():
        async with running_server(
            mask_tables=[table, WideTable()]
        ) as server:
            host, port = server.address
            async with ScanClient(host, port) as client:
                with pytest.raises(ServerFault) as info:
                    await client.open_beam_flow(WideTable.vocab_hash, 4)
                assert info.value.code == ErrorCode.UNKNOWN_VOCAB
                assert "65535-byte rows" in info.value.detail
                (conn,) = server._connections.values()
                assert conn.flows == {}
                flow = await client.open_beam_flow(table.vocab_hash, 2)
                assert flow.rows == [table.mask_row(0)] * 2
                await flow.close()

    run(main())


async def _second_flow_finishes(client, table) -> None:
    """The connection outlived a refusal: another flow on it still
    opens, steps and closes."""
    flow = await client.open_beam_flow(table.vocab_hash, 2)
    local = BeamMaskSession(table, 2)
    ids = [set_bits(bytearray(row))[0] for row in flow.rows]
    states, rows = await flow.advance(ids)
    local.advance(ids)
    assert (states, rows) == (local.states, local.masks())
    await flow.close()
    assert client.connected


def test_open_beam_refused_past_the_peer_frame_limit(table):
    """A beam whose all-full MASKS frame (``1 + 8 + w·(5 + row_bytes)``
    bytes) would exceed the client's ``max_frame`` is refused at
    OPEN_BEAM with FRAME_TOO_LARGE — no frame the client must reject,
    no flow left on the server, the connection unharmed."""
    rb = table.row_bytes
    assert protocol.masks_frame_size(20, rb) == 1 + 8 + 20 * (5 + rb) > 1024

    async def main():
        async with running_server(mask_tables=[table]) as server:
            host, port = server.address
            async with ScanClient(host, port, max_frame=1024) as client:
                with pytest.raises(ServerFault) as info:
                    await client.open_beam_flow(table.vocab_hash, 20)
                assert info.value.code == ErrorCode.FRAME_TOO_LARGE
                (conn,) = server._connections.values()
                assert conn.flows == {}
                await _second_flow_finishes(client, table)

    run(main())


def test_fork_refused_at_the_width_cap_and_frame_limit(table):
    """FORK is BAD_TOKEN, the beam unchanged, when it would grow past
    ``MAX_BEAM_WIDTH`` lanes (the cap OPEN_BEAM enforces) or past the
    client's frame limit."""

    async def refused(flow, why):
        before = (flow.states, flow.rows)
        with pytest.raises(ServerFault) as info:
            await flow.fork(0, timeout=5.0)
        assert info.value.code == ErrorCode.BAD_TOKEN
        assert why in info.value.detail
        assert (flow.states, flow.rows) == before
        # Nothing moved server-side either: a rollback has no fork to
        # undo, and the beam still answers at its width.
        with pytest.raises(ServerFault):
            await flow.rollback(1, timeout=5.0)
        states, _rows = await flow.advance(
            [set_bits(bytearray(row))[0] for row in flow.rows]
        )
        assert len(states) == len(before[0])

    async def main():
        async with running_server(mask_tables=[table]) as server:
            host, port = server.address
            async with ScanClient(host, port) as client:
                flow = await client.open_beam_flow(
                    table.vocab_hash, MAX_BEAM_WIDTH
                )
                await refused(flow, f"{MAX_BEAM_WIDTH + 1} lanes")
                await flow.close()
                await _second_flow_finishes(client, table)
            async with ScanClient(host, port, max_frame=1024) as client:
                flow = await client.open_beam_flow(table.vocab_hash, 19)
                await refused(flow, "1069-byte MASKS frames (limit 1024)")
                await flow.close()
                await _second_flow_finishes(client, table)

    run(main())


def test_drain_does_not_wait_for_beam_flows(table):
    """Beam flows never 'finish' on their own; stop(drain=True) must
    not hold the server open on their account."""

    async def main():
        async with running_server(mask_tables=[table]) as server:
            host, port = server.address
            client = ScanClient(host, port)
            await client.connect()
            await client.open_beam_flow(table.vocab_hash, 4)
            started = time.perf_counter()
            await server.stop(drain=True, timeout=10.0)
            assert time.perf_counter() - started < 5.0
            await client.close()

    run(main())


# ----------------------------------------------------------------------
# hot swap mid-beam (the pinning contract)
# ----------------------------------------------------------------------
def test_swap_mid_beam_pins_generation(tmp_path):
    """A beam flow opened before ``POST /swap`` keeps serving masks
    from the grammar it opened on, byte-identical until it closes;
    flows opened after the swap see the new grammar's masks."""
    registry = Registry(str(tmp_path / "store"))
    xml_ref = registry.publish("xmlrpc", xmlrpc())
    ite_ref = registry.publish("ifelse", if_then_else())
    vocab = synthetic_vocab(size=384, seed=7)
    registry.publish_masks(xml_ref, vocab)
    registry.publish_masks(ite_ref, vocab)
    xml_table = registry.load_masks(xml_ref, vocab.vocab_hash)
    ite_table = registry.load_masks(ite_ref, vocab.vocab_hash)
    assert xml_table.mask_row(0) != ite_table.mask_row(0)

    async def main():
        async with running_server(
            spec=TaggerSpec(
                registry_ref=xml_ref, registry_root=registry.root
            ),
            registry=registry,
            admin_port=0,
        ) as server:
            host, port = server.address
            old_local = BeamMaskSession(xml_table, 2)
            rng = random.Random(23)
            async with ScanClient(host, port) as client:
                flow = await client.open_beam_flow(vocab.vocab_hash, 2)
                assert flow.rows == old_local.masks()

                status, _body = await _admin(
                    server.admin_address, "POST",
                    f"/swap?grammar={ite_ref}",
                )
                assert status == "200 OK"
                assert server._current.ref == ite_ref

                # The pinned beam keeps walking the *old* grammar.
                for _ in range(15):
                    ids = []
                    for row in flow.rows:
                        valid = set_bits(bytearray(row))
                        if not valid:
                            ids = None
                            break
                        ids.append(rng.choice(valid))
                    if ids is None:
                        break
                    states, rows = await flow.advance(ids)
                    old_local.advance(ids)
                    assert states == old_local.states
                    assert rows == old_local.masks(), (
                        "pinned beam drifted off its generation"
                    )
                await flow.fork(0)
                old_local.fork(0)
                assert flow.states == old_local.states
                assert flow.rows == old_local.masks()
                await flow.close()

                # A flow opened after the swap sees the new grammar.
                new_local = BeamMaskSession(ite_table, 2)
                fresh = await client.open_beam_flow(vocab.vocab_hash, 2)
                assert fresh.rows == new_local.masks()
                assert fresh.rows != [
                    bytes(xml_table.mask_row(0)),
                    bytes(xml_table.mask_row(0)),
                ]
                ids = [set_bits(bytearray(r))[0] for r in fresh.rows]
                states, rows = await fresh.advance(ids)
                new_local.advance(ids)
                assert states == new_local.states
                assert rows == new_local.masks()
                await fresh.close()

    run(main())


# ----------------------------------------------------------------------
# admin exposition: row-completion counters, beam telemetry
# ----------------------------------------------------------------------
def test_stats_say_beam_native_before_any_beam_opens(table, monkeypatch):
    """A ``--engine native`` server answers ``structgen.beam_native``
    from the native module as loaded or prebuilt: true before the
    first beam opens when the kernel builds here."""
    monkeypatch.setattr(_native_build, "_cached_module", None)
    monkeypatch.setattr(_native_build, "_attempted", False)

    async def main():
        async with running_server(
            spec=RouterSpec(grammar=xmlrpc(), engine="native"),
            mask_tables=[table],
        ) as server:
            sg = server.stats()["structgen"]
            assert sg["beams_open"] == 0
            return sg["beam_native"]

    assert run(main()) is (_native_build.load_kernel() is not None)


def test_admin_exposes_memo_and_beam_telemetry(tmp_path):
    """/stats carries the memo block (rows served already complete /
    completed on demand), the table summary and beams_open; /metrics
    renders the counters in Prometheus text format."""
    registry = Registry(str(tmp_path / "store"))
    ref = registry.publish("xmlrpc", xmlrpc())
    vocab = synthetic_vocab(size=384, seed=7)
    # ci_max_len=2 forces context-dependent tokens → rows to complete.
    registry.publish_masks(ref, vocab, ci_max_len=2)

    async def main():
        async with running_server(
            registry=str(tmp_path / "store"),
            grammar=ref,
            admin_port=0,
        ) as server:
            host, port = server.address
            rng = random.Random(31)
            async with ScanClient(host, port) as client:
                flow = await client.open_beam_flow(vocab.vocab_hash, 4)
                for _ in range(10):
                    ids = []
                    for row in flow.rows:
                        valid = set_bits(row)
                        if not valid:
                            ids = None
                            break
                        ids.append(rng.choice(valid))
                    if ids is None:
                        break
                    await flow.advance(ids)

                status, body = await _admin(
                    server.admin_address, "GET", "/stats"
                )
                assert status == "200 OK"
                stats = json.loads(body)
                sg = stats["structgen"]
                assert sg["beams_open"] == 1
                memo = sg["memo"]
                assert set(memo) == {"hits", "misses"}
                # Each visited state is completed exactly once ...
                table_info = sg["tables"][0]
                assert 0 < memo["misses"] <= table_info["states"]
                # ... and every other served row was already complete.
                counters = stats["counters"]
                assert memo["hits"] + memo["misses"] == (
                    counters["structgen.masks_served"]
                )
                assert memo["hits"] > 0
                assert "rev" not in table_info
                # The open beam loaded the kernel, or fell back: the
                # scrape says which.
                assert sg["beam_native"] is (
                    _native_build.load_kernel() is not None
                )
                assert counters["structgen.memo_hits"] == memo["hits"]
                assert counters["structgen.memo_misses"] == (
                    memo["misses"]
                )
                assert "structgen.memo_capped" not in counters
                assert counters["structgen.cd_checks"] == (
                    table_info["cd"] * counters["structgen.masks_served"]
                )

                status, body = await _admin(
                    server.admin_address, "GET", "/metrics"
                )
                assert status == "200 OK"
                assert "repro_structgen_memo_hits" in body
                assert "repro_structgen_memo_misses" in body
                assert "repro_structgen_beams_opened 1" in body
                assert "repro_structgen_beam_lanes_full" in body
                assert "repro_structgen_beam_lanes_delta" in body
                await flow.close()

    run(main())
