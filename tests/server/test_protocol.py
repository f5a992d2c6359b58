"""Wire-protocol framing: encode/decode round trips, incremental
parsing at adversarial split points, and the frame-size limit."""

import asyncio
import contextlib
import struct
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.server import protocol
from repro.server.protocol import (
    CONNECTION_FLOW,
    ErrorCode,
    Frame,
    FrameDecoder,
    FrameType,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_data,
    decode_error,
    decode_finish_flow,
    decode_hello,
    decode_open_flow,
    decode_result,
    encode_data,
    encode_error,
    encode_finish_flow,
    encode_frame,
    encode_goodbye,
    encode_hello,
    encode_open_flow,
    encode_result,
    start_eagerly,
)


def decode_all(blob: bytes, max_frame: int = 1 << 20):
    return FrameDecoder(max_frame).feed(blob)


# ----------------------------------------------------------------------
def test_hello_roundtrip():
    (frame,) = decode_all(encode_hello(PROTOCOL_VERSION, 12345))
    assert frame.type == FrameType.HELLO
    assert decode_hello(frame) == (PROTOCOL_VERSION, 12345)
    assert protocol.decode_hello_lists(frame) == ((), None)


@pytest.mark.parametrize("grammars", [(), ("xmlrpc@1", "ifelse@2")])
@pytest.mark.parametrize("ring", [None, (), ("10.0.0.1:9431", "h:2")])
def test_hello_carries_grammars_and_a_proxys_ring(grammars, ring):
    """No ring (a server) and an empty one (a proxy with no healthy
    member) read back apart."""
    (frame,) = decode_all(encode_hello(PROTOCOL_VERSION, 99, grammars, ring))
    assert decode_hello(frame) == (PROTOCOL_VERSION, 99)
    assert protocol.decode_hello_lists(frame) == (grammars, ring)


def test_open_data_finish_roundtrip():
    blob = (
        encode_open_flow(7)
        + encode_data(7, b"<methodCall>")
        + encode_finish_flow(7)
    )
    frames = decode_all(blob)
    assert [f.type for f in frames] == [
        FrameType.OPEN_FLOW, FrameType.DATA, FrameType.FINISH_FLOW,
    ]
    assert decode_open_flow(frames[0]) == 7
    assert decode_data(frames[1]) == (7, b"<methodCall>")
    assert decode_finish_flow(frames[2]) == 7


def test_result_roundtrip_carries_typed_records():
    """Routed results cross as spans (the payload stays with whoever
    holds the flow's bytes), tagger results as rebuilt DetectEvents."""
    from repro.apps.xmlrpc.messages import RoutedMessage, RouteRecord
    from repro.core.scanplan import DetectEvent
    from repro.grammar.analysis import Occurrence
    from repro.grammar.symbols import Terminal

    data = b"<a>buy</a> <a>?</a>"
    messages = [
        RoutedMessage(0, 10, 1, "buy", data[0:10]),
        RoutedMessage(11, 19, -1, None, data[11:19]),
    ]
    (frame,) = decode_all(encode_result(9, True, messages))
    assert decode_result(frame) == (
        9, True,
        [RouteRecord(0, 10, 1, "buy"), RouteRecord(11, 19, -1, None)],
    )
    assert decode_result(frame, data) == (9, True, messages)
    events = [
        DetectEvent(Occurrence(3, 0, Terminal("STRING")), 7),
        DetectEvent(Occurrence(4, 2, Terminal("</a>")), 10),
    ]
    (frame,) = decode_all(encode_result(9, False, events))
    assert decode_result(frame) == (9, False, events)
    (frame,) = decode_all(encode_result(9, False, []))
    assert decode_result(frame) == (9, False, [])


def test_error_roundtrip_unicode_message():
    blob = encode_error(CONNECTION_FLOW, ErrorCode.IDLE_TIMEOUT, "idle ⏱")
    (frame,) = decode_all(blob)
    assert decode_error(frame) == (
        CONNECTION_FLOW, ErrorCode.IDLE_TIMEOUT, "idle ⏱",
    )


def test_goodbye_is_minimal():
    (frame,) = decode_all(encode_goodbye())
    assert frame.type == FrameType.GOODBYE
    assert frame.payload == b""


# ----------------------------------------------------------------------
def test_decoder_handles_byte_at_a_time_delivery():
    """Every frame comes out whole however the reads are cut; frames
    ahead of a bad length still do, and the length then raises."""
    blob = encode_open_flow(1) + encode_data(1, b"abc") + encode_goodbye()
    for tail in (b"", struct.pack("!I", 1 << 30) + b"never read"):
        decoder = FrameDecoder()
        frames = []
        data = blob + tail
        cut = pytest.raises(ProtocolError) if tail else contextlib.nullcontext()
        with cut:
            for i in range(len(data)):
                frames += decoder.feed(data[i : i + 1])
        assert [f.type for f in frames] == [
            FrameType.OPEN_FLOW, FrameType.DATA, FrameType.GOODBYE,
        ]
        assert decode_data(frames[1]) == (1, b"abc")
        assert decoder.pending() == (4 if tail else 0)


FRAMES = st.lists(
    st.tuples(st.integers(1, 255), st.binary(max_size=300)), max_size=12
)


@settings(max_examples=300, deadline=None)
@given(frames=FRAMES, bad_tail=st.booleans(), data=st.data())
def test_decoder_is_split_invariant_and_keeps_frames_intact(
    frames, bad_tail, data
):
    """A frame sequence cut at random points and fed piece by piece
    yields the frames one ``feed`` does; a frame handed out stays equal
    to what it was however many reads follow (no buffer is reused
    under it); the frames ahead of a bad length are still returned."""
    blob = b"".join(encode_frame(t, p) for t, p in frames)
    if bad_tail:
        blob += struct.pack("!I", 1 << 30) + b"junk"
    cuts = sorted(data.draw(st.lists(st.integers(0, len(blob)), max_size=24)))
    decoder = FrameDecoder()
    kept: list = []
    raised = False
    for start, end in zip([0] + cuts, cuts + [len(blob)]):
        try:
            got = decoder.feed(blob[start:end])
        except ProtocolError:
            raised = True
            break
        kept += [(frame, bytes(frame.payload)) for frame in got]
        assert all(frame.payload == copy for frame, copy in kept)
    assert [(f.type, copy) for f, copy in kept] == frames
    assert (raised or decoder.error is not None) == bad_tail
    if not bad_tail:
        assert decoder.pending() == 0 and decoder.taken == len(blob)
        assert FrameDecoder().feed(blob) == [f for f, _copy in kept]


def test_decoder_rejects_oversized_length_before_body():
    """The limit fires on the *declared* length, so the body never has
    to arrive (or be buffered) for the rejection."""
    decoder = FrameDecoder(max_frame=64)
    header = struct.pack("!I", 65)
    with pytest.raises(ProtocolError) as info:
        decoder.feed(header)  # not a single body byte supplied
    assert info.value.code == ErrorCode.FRAME_TOO_LARGE


def test_decoder_accepts_frame_at_exact_limit():
    chunk = b"x" * 59
    blob = encode_data(3, chunk)
    assert len(blob) - 4 == 64
    (frame,) = FrameDecoder(max_frame=64).feed(blob)
    assert decode_data(frame) == (3, chunk)


def test_decoder_rejects_empty_body():
    with pytest.raises(ProtocolError):
        FrameDecoder().feed(struct.pack("!I", 0))


def test_short_payload_raises_protocol_error():
    with pytest.raises(ProtocolError):
        decode_hello(Frame(FrameType.HELLO, b"\x00"))
    with pytest.raises(ProtocolError):
        decode_result(Frame(FrameType.RESULT, b"\x00\x00"))


def test_malformed_result_block_raises_protocol_error():
    head = struct.pack("!IB", 1, 1)
    for block in (
        b"junk",  # shorter than a block header
        struct.pack("!BII", 7, 0, 0),  # unknown kind
        struct.pack("!BII", 0, 0, 1),  # a record declared, none carried
        struct.pack("!BII", 0, 1, 0) + struct.pack("!I", 9) + b"ab",
        struct.pack("!BII", 0, 0, 1) + struct.pack("!QQiI", 5, 2, 0, 0),
        struct.pack("!BII", 0, 0, 1)
        + struct.pack("!QQiI", 0, 2, 0, 3),  # service id, empty table
        struct.pack("!BII", 0, 1, 0) + struct.pack("!I", 1) + b"\xff",
    ):
        with pytest.raises(ProtocolError):
            decode_result(Frame(FrameType.RESULT, head + block))
    with pytest.raises(ProtocolError):  # final flag is 0 or 1
        decode_result(
            Frame(
                FrameType.RESULT,
                struct.pack("!IB", 1, 2) + struct.pack("!BII", 0, 0, 0),
            )
        )


# ----------------------------------------------------------------------
def test_start_eagerly_from_a_read_callback():
    """Started from a plain loop callback (as a read callback is), a
    coroutine's first step runs at once, and one that suspends there
    on ``wait_for`` — which from Python 3.12 on needs a current task —
    finishes in the task returned; one that never suspends returns
    None, raising what it raised."""
    seen = []

    async def dial(fut):
        seen.append(("first", asyncio.current_task()))
        got = await asyncio.wait_for(fut, 5.0)
        seen.append(("rest", asyncio.current_task()))
        return got

    async def at_once():
        seen.append("ran")

    async def broken():
        raise ValueError("first step")

    async def scenario():
        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        started = loop.create_future()

        def callback():
            try:
                started.set_result(start_eagerly(dial(fut)))
            except Exception as exc:  # noqa: BLE001 - for the test to see
                started.set_exception(exc)

        loop.call_soon(callback)
        task = await started
        assert isinstance(task, asyncio.Task) and seen[0][0] == "first"
        fut.set_result(7)
        assert await task == 7
        assert seen[1] == ("rest", task)
        if sys.version_info >= (3, 12):
            assert seen[0][1] is task  # the first step ran in its task
        assert start_eagerly(at_once()) is None and seen[-1] == "ran"
        with pytest.raises(ValueError):
            start_eagerly(broken())

    asyncio.run(scenario())
