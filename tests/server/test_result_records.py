"""The packed, echo-free RESULT: codec properties, flows end to end,
and what the serving edge no longer imports.

* Property tests (Hypothesis) for both record kinds: round trip
  through :func:`encode_result_frames` at any frame limit; truncated,
  bit-flipped and over-long frames raise :class:`ProtocolError` or
  decode, never anything else; :class:`FrameDecoder` yields the same
  frames however the byte stream is cut.
* The routed fast paths against their references: the kernel's
  encoder is byte for byte the portable one at every frame limit
  (refusals included), and the one-pass decoder returns what a
  record-by-record loop through the constructors returns — or raises
  the same :class:`ProtocolError` — on intact and mangled blocks.
  :class:`RoutedMessage` keeps its contract as a ``NamedTuple``.
* ``RouterSpec`` and ``TaggerSpec`` flows through a server, a
  one-worker pool and the cluster (a backend lost mid-flow, the flow
  replayed by the client onto the proxy's ring) equal the in-process
  result — payload included, though it never crosses back.
* A flow whose results outgrow the client's ``max_frame`` is split by
  the server (the regression: one 1.5 MB message used to come back as
  one 1.5 MB frame and kill the connection).
* ``repro.server`` imports no ``pickle``, and a client decodes routed
  results without loading the scan engine.
"""

import ast
import asyncio
import dataclasses
import pathlib
import pickle
import struct
import subprocess
import sys
import textwrap
import types

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.apps.xmlrpc import ContentBasedRouter, WorkloadGenerator
from repro.apps.xmlrpc.messages import (
    Base64Value,
    MethodCall,
    RoutedMessage,
    RouteRecord,
)
from repro.core import _native_build
from repro.core.compiled import CompiledTagger
from repro.core.scanplan import DetectEvent
from repro.grammar.analysis import Occurrence
from repro.grammar.examples import xmlrpc
from repro.grammar.symbols import Terminal
from repro.server import ScanClient, ScanProxy, ScanServer, protocol
from repro.server.protocol import (
    Frame,
    FrameDecoder,
    FrameType,
    ProtocolError,
    decode_result,
    encode_frame,
    encode_result_frames,
)
from repro.service import RouterSpec, TaggerSpec

from tests.server.conftest import running_server

U32 = st.integers(0, 2**32 - 1)
U64 = st.integers(0, 2**64 - 1)
NAMES = st.text(max_size=12)  # any code point but surrogates: non-ASCII too


@st.composite
def routed(draw, names=NAMES, positions=U64):
    low, high = sorted((draw(positions), draw(positions)))
    return RouteRecord(
        low, high, draw(st.integers(-(2**31), 2**31 - 1)),
        draw(st.none() | names),
    )


@st.composite
def events(draw):
    return DetectEvent(
        Occurrence(draw(U32), draw(U32), Terminal(draw(NAMES))), draw(U64)
    )


RESULTS = st.lists(routed(), max_size=40) | st.lists(events(), max_size=40)


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# codec properties
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(U32, st.booleans(), RESULTS, st.integers(128, 2048))
def test_results_round_trip_at_any_frame_limit(flow, final, items, limit):
    frames = encode_result_frames(flow, final, items, limit)
    decoded = FrameDecoder(limit).feed(b"".join(frames))  # each one fits
    assert len(decoded) == len(frames)
    got = []
    for index, frame in enumerate(decoded):
        flow_id, is_final, part = decode_result(frame)
        assert flow_id == flow
        assert is_final == (final and index == len(frames) - 1)
        got += part
    assert got == items


@settings(max_examples=150, deadline=None)
@given(RESULTS, st.data())
def test_mangled_results_raise_protocol_error_only(items, data):
    (frame,) = FrameDecoder().feed(protocol.encode_result(5, True, items))
    payload = bytes(frame.payload)
    # Cut anywhere, or grown by anything: the counts no longer add up.
    cut = data.draw(st.integers(0, len(payload) - 1))
    with pytest.raises(ProtocolError):
        decode_result(Frame(FrameType.RESULT, payload[:cut]))
    with pytest.raises(ProtocolError):
        decode_result(
            Frame(FrameType.RESULT, payload + data.draw(st.binary(min_size=1)))
        )
    # Any byte changed: an error of the protocol's own, or a decode
    # (a flipped port is still a port) — and of the same shape.
    at = data.draw(st.integers(0, len(payload) - 1))
    flipped = bytearray(payload)
    flipped[at] ^= data.draw(st.integers(1, 255))
    try:
        flow_id, final, got = decode_result(
            Frame(FrameType.RESULT, bytes(flipped))
        )
    except ProtocolError:
        return
    assert isinstance(final, bool) and len(got) == len(items)
    if at >= 5 + 9 and got:  # behind the heads: same kind, too
        assert type(got[0]) is type(items[0])


def test_payload_comes_from_the_flows_bytes_or_not_at_all():
    data = b"0123456789"
    messages = [RoutedMessage(2, 6, 1, "buy", data[2:6])]
    (frame,) = FrameDecoder().feed(protocol.encode_result(1, True, messages))
    assert len(frame.payload) < 5 + 9 + 4 + 3 + 24 + 1  # no payload in it
    assert decode_result(frame, data)[2] == messages
    with pytest.raises(ProtocolError, match="outside the flow"):
        decode_result(frame, data[:5])  # a span the client never sent


# ----------------------------------------------------------------------
# the routed fast paths against their references
# ----------------------------------------------------------------------
def _kernel():
    ext = _native_build.load_kernel()
    if ext is None:
        pytest.skip("native kernel unavailable")
    return ext


#: Names up to a few hundred UTF-8 bytes: some no 128-byte frame holds.
LONG_NAMES = NAMES | st.text(min_size=30, max_size=120)


@st.composite
def routed_items(draw):
    records = draw(st.lists(routed(LONG_NAMES), max_size=40))
    if draw(st.booleans()):
        return records
    return [RoutedMessage(*record, payload=b"") for record in records]


@settings(max_examples=200, deadline=None)
@given(U32, st.booleans(), routed_items(), st.integers(128, 2048))
def test_kernel_encoder_is_byte_identical_to_its_twin(
    flow, final, items, limit
):
    """Per frame: the same name table, the same records, the same
    split points and final flag — and where one record fits no frame,
    the twin's ``FRAME_TOO_LARGE`` with its message."""
    ext = _kernel()
    rows = [(m.start, m.end, m.port, m.service) for m in items]
    got = protocol._routed_frames(ext, flow, final, items, limit)
    try:
        expected = protocol._split(flow, final, protocol._ROUTED, rows, limit)
    except ProtocolError as exc:
        assert exc.code == protocol.ErrorCode.FRAME_TOO_LARGE
        assert got is None
        with pytest.raises(ProtocolError) as info:
            encode_result_frames(flow, final, items, limit)
        assert (info.value.code, str(info.value)) == (exc.code, str(exc))
        return
    assert got == expected
    assert encode_result_frames(flow, final, items, limit) == expected


@pytest.mark.parametrize(
    "item",
    [
        RouteRecord(-1, 1, 0, None),
        RouteRecord(0, 2**64, 0, None),
        RouteRecord(0, 1, 2**31, None),
        RouteRecord(0, 1, 0, "\ud800"),  # a lone surrogate: no UTF-8
        RouteRecord(0.0, 1, 0, None),
        RouteRecord(0, 1, 1.0, None),
    ],
)
def test_kernel_leaves_unencodable_records_to_the_twin(item):
    ext = _kernel()
    items = [RouteRecord(0, 1, 0, "buy"), item]
    assert protocol._routed_frames(ext, 1, True, items, 4096) is None
    with pytest.raises(ProtocolError, match="unencodable"):
        encode_result_frames(1, True, items, 4096)


def test_items_that_are_not_tuples_take_the_twin():
    ext = _kernel()
    item = types.SimpleNamespace(start=0, end=3, port=1, service="buy")
    assert protocol._routed_frames(ext, 1, True, [item], 4096) is None
    assert encode_result_frames(1, True, [item]) == encode_result_frames(
        1, True, [RouteRecord(0, 3, 1, "buy")]
    )


def _reference_decode(block, data=None) -> list:
    """The decoder as it was: record by record through the result
    types' constructors, by the block's kind byte — the oracle of the
    one-pass routed one (a flipped byte may make any kind)."""
    kind, names, body = protocol._block_parts(block)
    out = []
    if kind == protocol._EVENT:
        for production, position, end, ident in struct.iter_unpack(
            "!IIQI", body
        ):
            if ident >= len(names):
                raise ProtocolError(
                    f"RESULT terminal id {ident} outside a table of "
                    f"{len(names)}"
                )
            out.append(DetectEvent(
                Occurrence(production, position, Terminal(names[ident])), end
            ))
        return out
    for start, end, port, ident in struct.iter_unpack("!QQiI", body):
        if start > end:
            raise ProtocolError(f"RESULT span [{start}:{end}] is reversed")
        if ident == 0xFFFFFFFF:
            service = None
        elif ident < len(names):
            service = names[ident]
        else:
            raise ProtocolError(
                f"RESULT service id {ident} outside a table of {len(names)}"
            )
        if data is None:
            out.append(RouteRecord(start, end, port, service))
        elif end > len(data):
            raise ProtocolError(
                f"RESULT span [{start}:{end}] outside the flow's "
                f"{len(data)} bytes"
            )
        else:
            out.append(
                RoutedMessage(
                    start=start, end=end, port=port, service=service,
                    payload=data[start:end],
                )
            )
    return out


def _outcome(decode, block, data):
    try:
        got = decode(block, data)
    except ProtocolError as exc:
        return "error", str(exc)
    return got, [type(item) for item in got]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(routed(positions=st.integers(0, 80)), max_size=20),
    st.binary(max_size=80),
    st.data(),
)
def test_routed_decoder_equals_the_reference(records, flow_bytes, data):
    """Spans and messages, intact or with bytes flipped anywhere
    (reversed spans, ids past the table, spans past the flow's bytes,
    broken heads): the same results of the same types, or the same
    :class:`ProtocolError` — and nothing else."""
    (frame,) = FrameDecoder().feed(protocol.encode_result(5, True, records))
    block = bytearray(frame.payload[5:])
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, len(block) - 1))
        block[at] ^= data.draw(st.integers(1, 255))
    for given_bytes in (None, flow_bytes):
        assert _outcome(
            protocol.decode_result_block, bytes(block), given_bytes
        ) == _outcome(_reference_decode, bytes(block), given_bytes)


def test_a_routed_block_flipped_into_an_event_block():
    """Flipping the kind byte 0 -> 1 and the name count 0 -> 1 of a
    one-record routed block makes it an EVENT block (one empty name,
    one 20-byte record): both decoders refuse its terminal id the same
    way, and once that id is 0 both read the one event."""
    (frame,) = FrameDecoder().feed(
        protocol.encode_result(5, True, [RouteRecord(0, 0, 0, None)])
    )
    block = bytearray(frame.payload[5:])
    block[0] ^= 1
    block[4] ^= 1
    valid = block[:-4] + bytes(4)
    for flipped in (block, valid):
        for given_bytes in (None, b""):
            assert _outcome(
                protocol.decode_result_block, bytes(flipped), given_bytes
            ) == _outcome(_reference_decode, bytes(flipped), given_bytes)
    assert _outcome(_reference_decode, bytes(block), None)[0] == "error"
    assert _outcome(_reference_decode, bytes(valid), None)[1] == [DetectEvent]


def test_routed_message_keeps_its_contract():
    message = RoutedMessage(
        start=2, end=6, port=1, service="buy", payload=b"2345"
    )
    twin = RoutedMessage(2, 6, 1, "buy", b"2345")
    assert message == twin and hash(message) == hash(twin)
    assert message == (2, 6, 1, "buy", b"2345")
    assert hash(message) == hash((2, 6, 1, "buy", b"2345"))
    assert message != RoutedMessage(2, 6, 0, "buy", b"2345")
    assert str(message) == "[2:6] -> port 1 (buy)"
    assert str(RoutedMessage(0, 1, -1, None, b"")) == "[0:1] -> port -1 (None)"
    assert repr(message) == (
        "RoutedMessage(start=2, end=6, port=1, service='buy', "
        "payload=b'2345')"
    )
    start, end, port, service, payload = message
    assert (start, end, port, service, payload) == tuple(twin)
    assert message._fields == ("start", "end", "port", "service", "payload")
    clone = pickle.loads(pickle.dumps(message))
    assert type(clone) is RoutedMessage and clone == message
    with pytest.raises(AttributeError):
        message.port = 0
    # What it kept of the frozen dataclass it was.
    moved = dataclasses.replace(message, port=99)
    assert type(moved) is RoutedMessage
    assert moved == RoutedMessage(2, 6, 99, "buy", b"2345")
    assert [f.name for f in dataclasses.fields(message)] == list(message._fields)


def test_a_record_the_frame_limit_cannot_hold_is_refused():
    with pytest.raises(ProtocolError) as info:
        encode_result_frames(1, True, [RouteRecord(0, 1, 0, "x" * 200)], 64)
    assert info.value.code == protocol.ErrorCode.FRAME_TOO_LARGE
    with pytest.raises(ProtocolError, match="unencodable"):
        encode_result_frames(1, True, [RouteRecord(-1, 1, 0, None)])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 255), st.binary(max_size=200)), max_size=12
    ),
    st.lists(st.integers(0, 3000), max_size=12),
)
def test_decoder_yields_the_same_frames_however_the_stream_is_cut(
    frames, cuts
):
    blob = b"".join(encode_frame(kind, body) for kind, body in frames)
    whole = FrameDecoder().feed(blob)
    assert [(f.type, f.payload) for f in whole] == frames
    edges = [0] + sorted(min(cut, len(blob)) for cut in cuts) + [len(blob)]
    decoder = FrameDecoder()
    pieces = []
    for low, high in zip(edges, edges[1:]):
        pieces += decoder.feed(blob[low:high])
    assert pieces == whole and decoder.pending() == 0


def test_decoder_delivers_the_frames_ahead_of_a_bad_length():
    decoder = FrameDecoder(max_frame=64)
    good = encode_frame(FrameType.GOODBYE)
    assert len(decoder.feed(good + struct.pack("!I", 65))) == 1
    for _ in range(2):  # then the error, and it stays
        with pytest.raises(ProtocolError) as info:
            decoder.feed(b"")
        assert info.value.code == protocol.ErrorCode.FRAME_TOO_LARGE


# ----------------------------------------------------------------------
# flows end to end
# ----------------------------------------------------------------------
def _workload() -> bytes:
    return WorkloadGenerator(seed=97).stream(12)[0]


SPECS = {
    "router": (RouterSpec(), lambda data: ContentBasedRouter().route(data)),
    "tagger": (
        TaggerSpec(xmlrpc()),
        lambda data: CompiledTagger(xmlrpc()).events(data),
    ),
}


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_flows_through_server_equal_in_process(kind):
    spec, local = SPECS[kind]
    data = _workload()

    async def main():
        async with running_server(spec=spec) as server:
            async with ScanClient(*server.address) as client:
                return await client.scan_stream(data, chunk_size=211)

    assert run(main()) == local(data)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_flow_through_proxy_survives_a_backend_loss(kind):
    """The client places the flow on the proxy's ring; after its
    backend dies mid-flow the client drops the blocks it had, replays
    the flow onto the other backend, and its result is still the local
    one."""
    spec, local = SPECS[kind]
    data = _workload()

    async def main():
        servers = [
            await ScanServer(spec=spec, port=0).start() for _ in range(2)
        ]
        proxy = ScanProxy(
            [s.address for s in servers], port=0, health_interval=0.2
        )
        await proxy.start()
        try:
            async with ScanClient(*proxy.address) as client:
                flow = await client.open_flow()
                half = len(data) // 2
                await flow.send(data[:half])
                await asyncio.sleep(0.05)  # partial results come back
                victim = next(
                    s for s in servers
                    if f"{s.address[0]}:{s.address[1]}" == flow.member
                )
                await victim.stop(drain=False)
                await flow.send(data[half:])
                got = await flow.finish(timeout=15.0)
                assert client.failovers >= 1
            return got
        finally:
            await proxy.stop(drain=False)
            for server in servers:
                if not server._stopped.is_set():
                    await server.stop(drain=False)

    assert run(main()) == local(data)


# ----------------------------------------------------------------------
# results larger than the receiver's frame limit
# ----------------------------------------------------------------------
def test_message_larger_than_the_clients_frame_limit_round_trips():
    """Regression: one 1.5 MB ``Base64Value`` call streamed in 64 KiB
    DATA frames to a client accepting 1 MiB frames. The RESULT used to
    echo the message and was never split: ``frame of 1536247 bytes
    exceeds limit 1048576`` and a dead connection."""
    call = MethodCall("deposit", (Base64Value("QUJD" * (3 * 128 * 1024)),))
    data = call.encode() + b"\n"
    assert len(data) > 1_500_000

    async def main():
        async with running_server() as server:
            async with ScanClient(*server.address) as client:
                assert client.max_frame == 1 << 20
                return await client.scan_stream(data, chunk_size=1 << 16)

    (message,) = run(main())
    assert (message.start, message.end) == (0, len(data) - 1)
    assert (message.port, message.service) == (0, "deposit")
    assert message.payload == data[:-1]


@pytest.mark.parametrize("path", ["server", "proxy"])
def test_results_are_split_to_the_peers_frame_limit(path):
    """Every sender of RESULT shares the one splitting encoder: a
    client accepting 256-byte frames gets a 60-message flow's results
    in several frames from the server, directly or on the ring of the
    proxy (whose member link advertises the same 256 bytes)."""
    data = WorkloadGenerator(seed=98).stream(60)[0]
    seen = []

    class CountingFlowClient(ScanClient):
        def _on_frame(self, link, frame):
            if frame.type == FrameType.RESULT:
                seen.append(len(frame.payload) + 1)
            super()._on_frame(link, frame)

    async def main():
        async with running_server() as server:
            address, proxy = server.address, None
            if path == "proxy":
                proxy = await ScanProxy([server.address], port=0).start()
                address = proxy.address
            try:
                async with CountingFlowClient(
                    *address, max_frame=256
                ) as client:
                    return await client.scan_stream(data, chunk_size=1 << 16)
            finally:
                if proxy is not None:
                    await proxy.stop(drain=False)

    assert run(main()) == ContentBasedRouter().route(data)
    assert len(seen) > 4 and max(seen) <= 256


# ----------------------------------------------------------------------
# what the serving edge imports
# ----------------------------------------------------------------------
def test_server_package_imports_no_pickle():
    package = pathlib.Path(protocol.__file__).parent
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            assert not [
                n for n in names if n.split(".")[0] in ("pickle", "_pickle")
            ], f"{source.name} imports pickle"


_CLIENT_ONLY = """
import asyncio, sys, types

sys.path.insert(0, sys.argv[1])
from repro.server import protocol
from repro.server.client import ScanClient

DATA = b"<methodCall><methodName>buy</methodName></methodCall>"


async def serve(reader, writer):
    decoder = protocol.FrameDecoder()
    writer.write(protocol.encode_hello())
    while True:
        data = await reader.read(1 << 16)
        if not data:
            return
        for frame in decoder.feed(data):
            if frame.type == protocol.FrameType.FINISH_FLOW:
                route = types.SimpleNamespace(
                    start=0, end=len(DATA), port=1, service="buy"
                )
                writer.write(protocol.encode_result(1, True, [route]))


async def main():
    listener = await asyncio.start_server(serve, "127.0.0.1", 0)
    port = listener.sockets[0].getsockname()[1]
    client = ScanClient("127.0.0.1", port)
    await client.connect()
    (message,) = await client.scan_stream(DATA, chunk_size=16)
    assert type(message).__name__ == "RoutedMessage", message
    assert (message.port, message.service, message.payload) == (
        1, "buy", DATA,
    ), message
    listener.close()


asyncio.run(main())
loaded = sorted(
    name for name in sys.modules
    if name.split(".")[:2] == ["repro", "core"] or name == "pickle"
)
assert not loaded, loaded
print("ok")
"""


def test_client_decodes_routed_results_without_the_scan_engine():
    src = str(pathlib.Path(repro.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_CLIENT_ONLY), src],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0 and done.stdout.strip() == "ok", done.stderr
