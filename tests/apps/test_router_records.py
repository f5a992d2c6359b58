"""The router's filtered packed drain, differentially.

Three things must agree on every input and every chunking:

* the native kernel's packed sink (``_nativescan.c``: selected hits
  only, as ``unit, end, start`` int64 records, no per-hit objects);
* its portable twin (:func:`repro.core.compiled.pack_selected` over
  ``feed_scan`` pairs — what the compiled and vector rungs, and a host
  without a compiler, run);
* :meth:`ContentBasedRouter.route`, the object-level reference the
  record assembler in :class:`RouterSession` has to reproduce.

The assembler itself has two forms as well: the kernel's
``assemble_routes`` over its ``array`` of records, and the Python loop
over a list — held equal on arbitrary record streams (Hypothesis).

The engines named here degrade down the ladder when the kernel is
missing (``REPRO_DISABLE_NATIVE=1``, the ``no-compiler`` CI job), so
the whole file also runs, and must pass, on the portable twin alone.
"""

import functools
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.xmlrpc import ContentBasedRouter, WorkloadGenerator
from repro.apps.xmlrpc.messages import RouteRecord
from repro.core import _native_build
from repro.core.compiled import pack_selected
from repro.core.generator import TaggerOptions
from repro.core.nativescan import NativeTagger
from repro.core.tagger import BehavioralTagger
from repro.core.wiring import WiringOptions
from repro.grammar.examples import xmlrpc
from repro.grammar.yacc_parser import parse_yacc_grammar

ENGINES = ("native", "vector", "compiled")
WIRINGS = {
    "plain": None,
    "recovery": TaggerOptions(wiring=WiringOptions(error_recovery=True)),
}
GARBAGE = (b"", b"\n", b" <junk>&& </methodCall> ", b"<methodName>x")


def _stream(seed: int, messages: int) -> bytes:
    """Seeded calls with seeded garbage between them (which, without
    the recovery wiring, ends the parse — the engines must agree on
    that too)."""
    rng = random.Random(seed)
    generator = WorkloadGenerator(seed=seed)
    parts = []
    for _ in range(messages):
        call, _port, _decoy = generator.message()
        parts += [call.encode(), rng.choice(GARBAGE)]
    return b"".join(parts)


def _router(engine: str, wiring: str) -> ContentBasedRouter:
    grammar = xmlrpc()
    return ContentBasedRouter(
        grammar=grammar,
        tagger=BehavioralTagger(grammar, WIRINGS[wiring], engine=engine),
    )


def _pieces(data: bytes, size: int) -> list[bytes]:
    return [data[i : i + size] for i in range(0, len(data), size)]


def _triples(flat) -> list[tuple]:
    flat = iter(flat)
    return list(zip(flat, flat, flat))


def _drained(router, pieces) -> list[tuple]:
    """The engine's own packed drain over ``pieces`` plus the
    end-of-data flush, as (unit, end, start) triples."""
    stream = router._compiled.stream()
    carry = array("q", (0, 0))
    records: list = []
    for piece in pieces:
        records += stream.feed_packed(piece, router._select, carry)
    records += stream.finish_packed_snapshot(router._select, carry)
    return _triples(records)


def _twin(router, pieces) -> list[tuple]:
    """The same records through the portable twin, whatever the
    engine: ``feed_scan`` pairs filtered by ``pack_selected``."""
    stream = router._compiled.stream()
    order = router._compiled.plan.unit_order
    carry = [0, 0]
    records: list = []
    for piece in pieces:
        records += pack_selected(
            stream.feed_scan(piece), order, router._select, carry
        )
    records += pack_selected(
        stream.finish_scan_snapshot(), order, router._select, carry
    )
    return _triples(records)


def _session(router, pieces, records: bool = False) -> list:
    session = router.stream()
    feed = session.feed_records if records else session.feed
    out: list = []
    for piece in pieces:
        out += feed(piece)
    out += session.finish_records() if records else session.finish()
    return out


def _spans(messages) -> list[tuple]:
    return [(m.start, m.end, m.port, m.service) for m in messages]


def _check(router, data: bytes, pieces, expected) -> None:
    assert b"".join(pieces) == data
    assert _drained(router, pieces) == _twin(router, pieces)
    assert _session(router, pieces) == expected
    assert [tuple(r) for r in _session(router, pieces, True)] == _spans(
        expected
    )


# ----------------------------------------------------------------------
@pytest.mark.parametrize("wiring", sorted(WIRINGS))
@pytest.mark.parametrize("engine", ENGINES)
def test_every_chunk_size_matches_route(engine, wiring):
    router = _router(engine, wiring)
    for seed in (11, 12):
        data = _stream(seed, 6)
        expected = router.route(data)
        assert expected, "the stream routes nothing: a vacuous comparison"
        for size in range(1, 65):
            _check(router, data, _pieces(data, size), expected)


@pytest.mark.parametrize("wiring", sorted(WIRINGS))
@pytest.mark.parametrize("engine", ENGINES)
def test_every_split_offset_of_a_short_stream(engine, wiring):
    """One cut at every offset, and the byte behind every offset alone
    in a chunk of its own: the method name, ``</methodCall>`` and the
    look-ahead byte that reports each of them all straddle a chunk
    edge somewhere in the sweep."""
    router = _router(engine, wiring)
    data = (
        b"<methodCall><methodName>buy</methodName><params></params>"
        b"</methodCall>\n??<methodCall><methodName>acctinfo</methodName>"
        b"<params><param><i4>7</i4></param></params></methodCall>"
    )
    expected = router.route(data)
    assert len(expected) == (2 if wiring == "recovery" else 1)
    for cut in range(len(data) + 1):
        _check(router, data, [data[:cut], data[cut:]], expected)
        _check(
            router,
            data,
            [data[:cut], data[cut : cut + 1], data[cut + 1 :]],
            expected,
        )


@pytest.mark.parametrize("engine", ENGINES)
def test_peek_finish_mid_stream_observes_without_moving(engine):
    """After every chunk, what was delivered plus what ``peek_finish``
    reports is ``route()`` of the prefix; peeking changes nothing."""
    router = _router(engine, "recovery")
    data = _stream(21, 5)
    session = router.stream()
    delivered: list = []
    fed = 0
    for piece in _pieces(data, 7):
        delivered += session.feed(piece)
        fed += len(piece)
        assert delivered + session.peek_finish() == router.route(data[:fed])
    assert delivered + session.finish() == router.route(data)


def test_twin_is_what_runs_without_the_kernel(monkeypatch):
    monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    router = _router("native", "recovery")
    assert not router._compiled.native_active
    data = _stream(31, 6)
    expected = router.route(data)
    for size in (1, 5, 64, len(data)):
        _check(router, data, _pieces(data, size), expected)


@pytest.mark.parametrize("engine", ENGINES)
def test_more_records_than_the_sink_holds_in_one_chunk(engine):
    """800 selected hits in one feed: the kernel's 256-record buffer
    fills, hands the rest of the chunk back, and is resumed."""
    router = _router(engine, "plain")
    generator = WorkloadGenerator(seed=41)
    data = b"\n".join(
        generator.message()[0].encode() for _ in range(400)
    )
    expected = router.route(data)
    assert len(expected) == 400
    _check(router, data, [data], expected)


def test_sink_holds_an_edge_wider_than_its_default_size():
    """140 contexts detect the same ``a`` on one byte, each writing
    two records: more than 256, so the record buffer is sized from the
    widest edge instead of being refused as too small."""
    n = 140
    grammar = parse_yacc_grammar(
        "%%\nS: "
        + " | ".join(f"A{i}" for i in range(n))
        + ";\n"
        + "".join(f'A{i}: "a" "b{i}";\n' for i in range(n))
        + "%%\n",
        name="wide-edge",
    )
    tagger = NativeTagger(grammar)
    select = bytes([3]) * len(tagger.units)
    data = b"a b7 a b99 "
    records = tagger.stream().feed_packed(data, select, array("q", (0, 0)))
    twin = pack_selected(
        tagger.stream().feed_scan(data), tagger.plan.unit_order, select, [0, 0]
    )
    assert list(records) == twin and len(twin) >= 3 * 2 * n


@pytest.mark.parametrize("engine", ENGINES)
def test_any_select_mask_drains_like_the_twin(engine):
    """The sink's contract is the mask, not the router's use of it:
    seeded masks, including units with both bits (two records)."""
    router = _router(engine, "recovery")
    data = _stream(51, 8)
    rng = random.Random(51)
    n_units = len(router._compiled.units)
    for _ in range(12):
        router._select = bytes(
            rng.choice((0, 0, 1, 2, 3)) for _ in range(n_units)
        )
        for size in (3, 64, len(data)):
            pieces = _pieces(data, size)
            assert _drained(router, pieces) == _twin(router, pieces)


# ----------------------------------------------------------------------
def test_kernel_rejects_malformed_sink_buffers():
    """Wrong-sized caller-owned buffers are a ValueError before a
    single byte is stepped — never a write out of bounds."""
    if _native_build.load_kernel() is None:
        pytest.skip("native kernel unavailable")
    router = _router("native", "plain")
    tagger = router._compiled
    nt = tagger._nt
    select = router._select
    data = b"<methodCall><methodName>buy</methodName>"

    def scan(select, carry, sink, errors=None):
        state = tagger.new_state()
        return nt.ext.scan_chunk(
            nt.capsule, 0, 0, data, state.regs, sink, errors, True,
            select, carry,
        )

    sink = array("q", bytes(24 * 256))
    carry = array("q", (0, 0))
    assert scan(select, carry, sink)[3] == len(data)  # well-formed: runs
    with pytest.raises(ValueError, match="select mask"):
        scan(select[:-1], carry, sink)
    with pytest.raises(ValueError, match="select mask"):
        scan(select + b"\x00", carry, sink)
    with pytest.raises(ValueError, match="carry"):
        scan(select, array("q", (0,)), sink)
    with pytest.raises(ValueError, match="record buffer"):
        scan(select, carry, array("q", bytes(24)))
    with pytest.raises(ValueError, match="aligned"):
        scan(select, carry, memoryview(bytearray(24 * 256 + 1))[1:])
    with pytest.raises(ValueError, match="error positions"):
        scan(select, carry, sink, errors=[])
    with pytest.raises((TypeError, BufferError)):
        scan(select, b"\x00" * 16, sink)  # read-only carry


# ----------------------------------------------------------------------
# the record assembler: kernel == Python loop
# ----------------------------------------------------------------------
#: Lexemes the service spans cut from: routed, unrouted, not UTF-8.
PIECES = st.sampled_from(
    [b"buy", b"sell", b"acctinfo", b"nope", b"\xff\xfe", b"caf\xc3\xa9",
     b"\xc3", b""]
) | st.binary(max_size=6)


@st.composite
def record_streams(draw):
    """(buffer, base, carried service, flat records): service records
    whose spans lie in the buffer (any bytes, so names that are not
    UTF-8 too), closing records with any int64 span."""
    buffer = b"".join(draw(st.lists(PIECES, max_size=8)))
    base = draw(st.integers(0, 1 << 40))
    flat: list[int] = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.booleans()):
            low, high = sorted(
                draw(st.integers(0, len(buffer))) for _ in range(2)
            )
            flat += (draw(st.integers(0, 90)), base + high, base + low)
        else:
            flat += (
                ~draw(st.integers(0, 90)),
                draw(st.integers(-(2**63), 2**63 - 1)),
                draw(st.integers(-(2**63), 2**63 - 1)),
            )
    service = draw(st.none() | st.sampled_from(["buy", "nope", "caf\u00e9"]))
    return buffer, base, service, flat


@functools.lru_cache(maxsize=None)
def _native_router() -> ContentBasedRouter:
    """One router for every example (its select mask is left alone)."""
    return _router("native", "plain")


@settings(max_examples=200, deadline=None)
@given(record_streams())
def test_kernel_assembles_records_like_the_loop(stream):
    """No service, an unknown one, a name that is not UTF-8 (replaced
    as ``bytes.decode(errors="replace")`` does), a service carried in
    from the previous chunk or out to the next: the kernel's routes
    and carried service are the loop's, field for field and type for
    type."""
    if _native_build.load_kernel() is None:
        pytest.skip("native kernel unavailable")
    buffer, base, service, flat = stream
    outcomes = []
    for records in (flat, array("q", flat)):
        session = _native_router().stream()
        assert session._kernel is not None
        session._buffer[:] = buffer
        session._base = base
        session._service = service
        routes, carried = session._assemble(records)
        assert all(type(route) is RouteRecord for route in routes)
        outcomes.append((routes, carried))
    assert outcomes[0] == outcomes[1]
    assert [type(r.service) for r in outcomes[1][0]] == [
        type(r.service) for r in outcomes[0][0]
    ]


def test_kernel_refuses_a_service_span_outside_the_buffer():
    ext = _native_build.load_kernel()
    if ext is None:
        pytest.skip("native kernel unavailable")
    table = ContentBasedRouter().table

    def assemble(records, base=100):
        return ext.assemble_routes(
            array("q", records), bytearray(b"buy"), base, None,
            table.routes, table.default_port, RouteRecord,
        )

    assert assemble([0, 103, 100, -1, 103, 90]) == (
        [RouteRecord(90, 103, 1, "buy")], None,
    )
    for span in ((104, 100), (102, 99), (101, 102)):
        with pytest.raises(ValueError, match="outside the buffer"):
            assemble([0, *span])
    with pytest.raises(TypeError, match="plain tuple subclass"):
        ext.assemble_routes(array("q"), b"", 0, None, {}, -1, dict)
