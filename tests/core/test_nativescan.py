"""Native C engine ≡ vector engine ≡ compiled engine ≡ interpreted loop.

The native engine (:mod:`repro.core.nativescan`) replaces the wide
Python loop with one C call per chunk — flat step tables, an effect
bytecode interpreter, inert-run fast-forwarding, C-side event
materialization — none of which may be observable: same events, same
order, same earliest-start lexemes, same §5.2 error positions, same
results under any chunking.  This suite pins all of that 4-way
differentially (interpreted vs compiled vs vector vs native) on seeded
random byte soup and XML-RPC workloads, across the full wiring-corner
matrix.

When the kernel cannot be built (no compiler, ``REPRO_DISABLE_NATIVE``)
the differential tests still run — they then prove the fallback ladder
— while the native-only assertions skip gracefully.
"""

import pickle
import random
import zlib
from array import array
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.xmlrpc import ContentBasedRouter
from repro.apps.xmlrpc.messages import Base64Value, MethodCall
from repro.apps.xmlrpc.workload import WorkloadGenerator
from repro.core import _native_build, nativescan
from repro.core.compiled import CompiledTagger
from repro.core.generator import TaggerOptions
from repro.core.nativescan import NativeTagger, capability
from repro.core.scanir import scan_ir_for
from repro.core.tagger import BehavioralTagger
from repro.core.tokens import TaggedToken
from repro.core.vectorscan import VectorTagger
from repro.core.wiring import WiringOptions
from repro.grammar.examples import balanced_parens, if_then_else, xmlrpc
from repro.grammar.yacc_parser import parse_yacc_grammar
from tests.core.test_fuzz_grammars import _derive, random_grammars

GRAMMARS = {
    "ite": if_then_else,
    "xmlrpc": xmlrpc,
    "parens": balanced_parens,
}

#: Wiring corners the table lowering must specialize on, matching the
#: compiled and vector engines' differential matrices.
VARIANTS = {
    "default": WiringOptions(),
    "no-dup": WiringOptions(context_duplication=False),
    "always": WiringOptions(start_mode="always"),
    "recovery": WiringOptions(error_recovery=True),
}
VARIANTS["no-longest"] = replace(
    WiringOptions(),
    tokenizer=replace(WiringOptions().tokenizer, longest_match=False),
)

ALPHABET = b"if then else got() <methodCall>param</int>intx 0123abc\t\n "

#: One probe per session: attempts the just-in-time kernel build, so
#: every later construction is a cache hit (or an honest skip).
NATIVE_BUILT = capability(probe=True)["native"]

needs_native = pytest.mark.skipif(
    not NATIVE_BUILT,
    reason="native kernel unavailable (no compiler or disabled)",
)


def _random_streams(seed: int, count: int, max_len: int = 200):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(0, max_len)
        yield bytes(rng.choice(ALPHABET) for _ in range(n))


def _assert_same_tokens(got, expected, data) -> None:
    """``got`` is ``expected`` field by field: a plain list of complete
    tokens, each lexeme the ``bytes`` of its span in ``data``."""
    assert type(got) is list and len(got) == len(expected)
    for token, reference in zip(got, expected):
        assert type(token) is TaggedToken and type(token.lexeme) is bytes
        assert tuple(token) == tuple(reference)
        assert token.token == token.occurrence.terminal.name
        assert token.lexeme == bytes(data[token.start : token.end])


def _random_chunks(data: bytes, rng: random.Random):
    """Adversarial split boundaries: single bytes, odd runs, MTU runs."""
    i = 0
    while i < len(data):
        n = rng.choice((1, 3, 5, 7, 8, 9, 13, 64, 211, 1500))
        yield data[i : i + n]
        i += n


# ----------------------------------------------------------------------
# differential: full wiring matrix and 4-way agreement
# ----------------------------------------------------------------------
@pytest.mark.parametrize("gname", GRAMMARS)
@pytest.mark.parametrize("vname", VARIANTS)
def test_differential_random_streams(gname, vname):
    """scan() (events AND earliest starts) and tag() (the kernel's
    token drain) match the compiled engine on every grammar × wiring
    corner."""
    grammar = GRAMMARS[gname]()
    options = TaggerOptions(wiring=VARIANTS[vname])
    compiled = CompiledTagger(grammar, options)
    native = NativeTagger(grammar, options)
    seed = zlib.crc32(f"native/{gname}/{vname}".encode())
    for data in _random_streams(seed=seed, count=40):
        assert native.scan(data) == compiled.scan(data)
        _assert_same_tokens(native.tag(data), compiled.tag(data), data)


@pytest.mark.parametrize("gname", GRAMMARS)
def test_four_way_agreement(gname):
    """All four engines agree — the native loop against the vector and
    compiled tables AND the interpreted reference semantics."""
    grammar = GRAMMARS[gname]()
    interpreted = BehavioralTagger(grammar, engine="interpreted")
    compiled = CompiledTagger(grammar)
    vector = VectorTagger(grammar)
    native = NativeTagger(grammar)
    seed = zlib.crc32(f"native4/{gname}".encode())
    for data in _random_streams(seed=seed, count=12):
        expected = compiled.scan(data)
        assert native.scan(data) == expected
        assert vector.scan(data) == expected
        assert expected == list(interpreted._scan(data, error_sink=None))
        tokens = compiled.tag(data)
        _assert_same_tokens(native.tag(data), tokens, data)
        assert vector.tag(data) == tokens == interpreted.tag(data)


@needs_native
def test_native_path_is_live_on_xmlrpc():
    """The reference grammar densifies: these tests must exercise the C
    loop, not silently fall back down the ladder."""
    assert NativeTagger(xmlrpc()).native_active


def test_xmlrpc_workload_events_and_tags():
    grammar = xmlrpc()
    compiled = CompiledTagger(grammar)
    native = NativeTagger(grammar)
    data, _ = WorkloadGenerator(seed=41).stream(60)
    # events() takes the kernel's events-only fast path; scan()/tag()
    # carry the (event, match start) pairs. All must agree exactly.
    assert native.events(data) == compiled.events(data)
    assert native.scan(data) == compiled.scan(data)
    assert native.tag(data) == compiled.tag(data)


# ----------------------------------------------------------------------
# tag(): finished tokens out of the kernel's drain
# ----------------------------------------------------------------------
@pytest.fixture(params=["kernel", "REPRO_DISABLE_NATIVE=1"])
def tag_pair(request, monkeypatch):
    """(native, compiled) over XML-RPC, with the kernel live (where it
    builds) and with it disabled: one eager tag() per engine, the same
    tokens either way."""
    if request.param != "kernel":
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    native = NativeTagger(xmlrpc())
    assert native.native_active == (request.param == "kernel" and NATIVE_BUILT)
    return native, CompiledTagger(xmlrpc())


def test_tag_drains_mid_chunk(tag_pair):
    """More tokens than the spill buffer holds: the drain runs (with
    the GIL re-taken) in the middle of the chunk, several times."""
    native, compiled = tag_pair
    data, _ = WorkloadGenerator(seed=17).stream(360)
    tokens = native.tag(data)
    assert len(tokens) > 2 * 4096  # well past HITS_CAP (512 triples)
    _assert_same_tokens(tokens, compiled.tag(data), data)


def test_tag_last_token_comes_from_the_flush_tail(tag_pair):
    """A token ending on the final byte has no look-ahead byte: the
    kernel cannot resolve it, ``_flush`` does, and it is built by the
    portable builder — indistinguishable from the kernel's."""
    native, compiled = tag_pair
    data = (
        b"<methodCall><methodName>buy</methodName>"
        b"<params></params></methodCall>"
    )
    tokens = native.tag(data)
    assert tokens[-1].end == len(data) and tokens[-1].lexeme == b"</methodCall>"
    _assert_same_tokens(tokens, compiled.tag(data), data)
    assert native.tag(b"") == compiled.tag(b"") == []


@pytest.mark.parametrize("wrap", [bytearray, memoryview], ids=lambda w: w.__name__)
def test_tag_accepts_any_buffer_and_returns_bytes(tag_pair, wrap):
    native, compiled = tag_pair
    data, _ = WorkloadGenerator(seed=23).stream(6)
    _assert_same_tokens(native.tag(wrap(data)), compiled.tag(data), data)
    _assert_same_tokens(compiled.tag(bytearray(data)), compiled.tag(data), data)
    stream = native.stream()
    assert stream.feed(wrap(data)) + stream.finish() == compiled.events(data)


@given(
    grammar=random_grammars(),
    seed=st.integers(0, 10_000),
    junk=st.text(alphabet="abcdefghxz ", max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_tag_matches_compiled_on_fuzzed_grammars(grammar, seed, junk):
    """Arbitrary small CFGs, derived sentences with junk spliced in."""
    rng = random.Random(seed)
    native, compiled = NativeTagger(grammar), CompiledTagger(grammar)
    sentence = _derive(grammar, rng, spaced=rng.random() < 0.5)
    cut = rng.randrange(len(sentence) + 1)
    for data in (sentence, sentence[:cut] + junk.encode() + sentence[cut:]):
        _assert_same_tokens(native.tag(data), compiled.tag(data), data)


@needs_native
def test_token_drain_refuses_a_start_outside_the_chunk():
    """The drain slices caller memory by computed offsets, so a token
    begun in an earlier chunk is a ValueError, never a read; so is a
    drain mode the kernel does not have."""
    native = NativeTagger(xmlrpc())
    nt = native._nt
    head, rest = b"<methodCall><methodNa", b"me>buy</methodName>"

    def scan(state, base, chunk, regs, mode):
        out: list = []
        state, _skipped = nt.ext.scan_chunk(
            nt.capsule, state, base, chunk, regs, out, None, mode
        )
        return state, out

    regs = native.new_state().regs
    state, tokens = scan(0, 0, head, regs, 2)
    assert [t.lexeme for t in tokens] == [b"<methodCall>"]
    with pytest.raises(ValueError, match="outside the chunk"):
        scan(state, len(head), rest, regs, 2)  # <methodName> began in head
    with pytest.raises(ValueError, match="drain mode"):
        scan(0, 0, head, native.new_state().regs, 3)


@needs_native
def test_kernel_refuses_a_malformed_register_file():
    """The kernel reads and writes the caller's register file in place
    and reads the watermark's registers through its length row, so
    anything but the tables' exact int64 layout is refused before a
    byte is stepped: a ValueError or TypeError, never a stray read."""
    native = NativeTagger(xmlrpc())
    nt = native._nt
    good = native.new_state().regs
    length_row = native.tables.reg_ofs[-1]
    caps = native.tables.unit_caps()

    def scan(regs):
        return nt.ext.scan_chunk(nt.capsule, 0, 0, b"<methodCall>", regs, [], None)

    def watermark(regs):
        return nt.ext.low_watermark(nt.capsule, 0, 0, regs)

    assert scan(good[:])[0] > 0 and watermark(good[:]) == 0
    over, negative = good[:], good[:]
    over[length_row] = caps[0] + 1
    negative[length_row + 1] = -1
    cases = [
        (good[:-1], ValueError),  # one slot short
        (good + array("q", [0]), ValueError),  # one slot long
        (good.tobytes(), TypeError),  # read-only
        (memoryview(good).toreadonly(), TypeError),
        (array("d", good.tolist()), TypeError),  # 8-byte items, not ints
        (array("i", [0]) * (2 * len(good)), TypeError),  # int32, same bytes
        (bytearray(good.tobytes()), TypeError),
        (memoryview(bytearray(8 * len(good) + 1))[1:].cast("q"), ValueError),
        (over, ValueError),  # a length above its unit's capacity
        (negative, ValueError),
    ]
    for regs, error in cases:
        for call in (scan, watermark):
            with pytest.raises(error):
                call(regs)
    with pytest.raises(ValueError, match="state id"):
        nt.ext.low_watermark(nt.capsule, native.tables.n_units * 1000, 0, good)
    assert good.tobytes() == native.tables.blank.tobytes()


@needs_native
def test_scan_chunk_refuses_bad_arguments():
    """What the entries refuse before a byte is stepped: a wrong
    arity, a foreign capsule, a state out of range, sinks of the wrong
    type, and a position that is not an int."""
    native = NativeTagger(xmlrpc())
    nt = native._nt
    regs = native.new_state().regs
    n_states = scan_ir_for(native).n_states
    data = b"<methodCall>"
    cases = [
        ((nt.capsule, 0), TypeError, "scan_chunk"),
        ((object(), 0, 0, data, regs, [], None), ValueError, "PyCapsule"),
        ((nt.capsule, -1, 0, data, regs, [], None), ValueError, "state id"),
        ((nt.capsule, n_states, 0, data, regs, [], None), ValueError,
         "state id"),
        ((nt.capsule, 0, 0, data, regs, [], ()), TypeError, "errors must"),
        ((nt.capsule, 0, 0, data, regs, (), None), TypeError, "out must"),
    ]
    for args, error, match in cases:
        with pytest.raises(error, match=match):
            nt.ext.scan_chunk(*args)
    with pytest.raises(TypeError):
        nt.ext.low_watermark(nt.capsule, 0, "0", regs)
    assert regs.tobytes() == native.tables.blank.tobytes()


@needs_native
def test_token_drain_refusal_mid_chunk_ends_the_call():
    """A chunk whose hits fill the spill buffer is drained mid-chunk;
    a refusal there (a token begun in an earlier chunk) ends the call
    with that error and appends nothing."""
    native = NativeTagger(xmlrpc())
    nt = native._nt
    head = b"<methodCall><methodNa"
    tail = b"<params></params></methodCall> "
    message = b"<methodCall><methodName>buy</methodName>" + tail
    rest = b"me>buy</methodName>" + tail + message * 200
    assert len(CompiledTagger(xmlrpc()).events(head + rest)) > 1024
    regs = native.new_state().regs
    state, _skipped = nt.ext.scan_chunk(
        nt.capsule, 0, 0, head, regs, [], None, 2
    )
    out: list = []
    with pytest.raises(ValueError, match="outside the chunk"):
        nt.ext.scan_chunk(nt.capsule, state, len(head), rest, regs, out,
                          None, 2)
    assert out == []


def test_widest_register_copy_matches_the_compiled_loop():
    """A 66-byte literal re-armed on every byte keeps a start register
    per offset live and shifts them all at each byte: one copy of 65
    registers, past the kernel's 64-slot stack scratch."""
    options = TaggerOptions(wiring=WiringOptions(start_mode="always"))
    grammar = parse_yacc_grammar("T " + "a" * 66 + "\n%%\ns: T;\n")
    compiled = CompiledTagger(grammar, options)
    effects = scan_ir_for(compiled).effects
    assert max(len(e[1][0]) for e in effects if e and e[1]) == 65
    native = NativeTagger(grammar, options)
    for data in (b"a" * 200, b"a" * 65 + b"b" + b"a" * 140):
        assert native.events(data) == compiled.events(data)
        _assert_same_tokens(native.tag(data), compiled.tag(data), data)


@needs_native
def test_build_tables_rejects_malformed_token_rows():
    """Rows and result types are validated once, at interning — the
    drain then fills tuples without a check per token."""
    ext = _native_build.load_kernel()
    tagger = NativeTagger(xmlrpc())
    captured = []

    class Spy:
        def build_tables(self, *args):
            captured.append(args)
            return ext.build_tables(*args)

    nativescan._NativeTables(Spy(), scan_ir_for(tagger), tagger)
    (good,) = captured
    rows = good[9]
    assert rows[0] == ("<methodCall>", tagger.units[0], 1)
    assert good[10:12] == (nativescan.DetectEvent, TaggedToken)

    class Roomy(tuple):  # has a __dict__: not fillable as a bare tuple
        pass

    name, unit, index = rows[0]
    for at, bad in (
        (9, rows[:-1]),
        (9, ((name, unit),) + rows[1:]),
        (9, ([name, unit, index],) + rows[1:]),
        (9, ((b"bytes", unit, index),) + rows[1:]),
        (9, ((name, unit, "1"),) + rows[1:]),
        (10, Roomy),
        (11, Roomy),
        (11, tuple()),
    ):
        with pytest.raises(ValueError, match="token row|tuple subclass"):
            ext.build_tables(*good[:at], bad, *good[at + 1 :])
    ext.build_tables(*good[:9], ((name, unit, None),) + rows[1:], *good[10:])


@needs_native
def test_build_tables_rejects_malformed_effect_programs():
    """Every unit and register index the interpreter follows is checked
    once, at interning: a stream that is not a concatenation of
    well-formed programs is refused, never run."""
    ext = _native_build.load_kernel()
    tagger = NativeTagger(xmlrpc())
    captured = []

    class Spy:
        def build_tables(self, *args):
            captured.append(args)
            return ext.build_tables(*args)

    nativescan._NativeTables(Spy(), scan_ir_for(tagger), tagger)
    (good,) = captured
    progs, n_units = good[6], good[2]
    # Unit 0's registers are [0, cap), unit 1's start at cap; the
    # length row starts at total.
    ofs = tagger.tables.reg_ofs
    cap, total = ofs[1], ofs[-1]

    def build(extra):
        args = list(good)
        args[6] = progs + array("i", extra)
        return ext.build_tables(*args)

    build(
        [2, 0, 1, cap - 1, 0]  # event
        + [3, 1, 0, 1, cap - 1, 4, 1, 1, 5, 1, total, cap, 0]  # moves
    )
    for extra in (
        [7, 0],  # no such opcode
        [1],  # ends inside a program
        [2, 0],  # event without its count
        [2, 0, 0, 0],  # event over no register
        [2, 0, 2, 0],  # event registers past the stream
        [2, 0, 1, cap, 0],  # a register outside the event's unit
        [2, 0, 1, -1, 0],
        [2, n_units, 1, 0, 0],  # no such unit
        [5, 1, total, cap + 1, 0],  # more moves than registers
        [3, total + 1] + [0, 1, 0] * (total + 1) + [0],
        [5, 1, total - 1, 1, 0],  # a length outside the length row
        [4, 1, total, 0],  # a set outside the unit registers
        [3, 1, 0, 1, cap, 0],  # a source outside the copy's unit
        [3, 1, total, 1, 0, 0],  # a copy outside the unit registers
        [3, 1, 0, 0, 0],  # a copy from no register
        [3, 1, 0, -1, 0],  # negative counts
        [3, -1, 0],
        [4, -1, 0],
        [5, -1, 0],
        [3, 2, 0, 1, 0, 0],  # fewer copies than announced
    ):
        with pytest.raises(ValueError, match="malformed effect program"):
            build(extra)


@needs_native
def test_build_tables_rejects_malformed_skip_rows():
    """A skip edge fast-forwards over every byte its row marks inert
    without stepping it, so the kernel checks once, at interning, that
    each such byte is a bare self-loop of the edge's own state and that
    the row exists: a fast-forward cannot change a result."""
    ext = _native_build.load_kernel()
    tagger = NativeTagger(xmlrpc())
    captured = []

    class Spy:
        def build_tables(self, *args):
            captured.append(args)
            return ext.build_tables(*args)

    nativescan._NativeTables(Spy(), scan_ir_for(tagger), tagger)
    (good,) = captured
    n_classes, class_table, step, prog_idx, live_all = (
        good[1], good[3], good[4], good[5], good[7]
    )
    n_rows = len(live_all) // 256
    assert n_rows > 1  # armed states have rows of their own

    def build(step=step, prog_idx=prog_idx, live_all=live_all):
        args = list(good)
        args[4], args[5], args[7] = step, prog_idx, live_all
        return ext.build_tables(*args)

    build()
    # A skip edge whose state has both kinds of live edge: one that runs
    # a program, and a bare one that moves to another state.
    for e, v in enumerate(step):
        base = e - e % n_classes
        edges = [step[base + class_table[x]] for x in range(256)]
        effectful = [x for x in range(256) if edges[x] & 1]
        elsewhere = [x for x in range(256) if edges[x] & 3 == 0 and edges[x] >> 2 != base]
        if v & 3 == 2 and effectful and elsewhere:
            break
    else:
        raise AssertionError("no skip state with both kinds of live edge")
    row = prog_idx[e]
    for bad in (-1, n_rows, 1 << 30):
        moved = array("i", prog_idx)
        moved[e] = bad
        with pytest.raises(ValueError, match="without an inert-byte row"):
            build(prog_idx=moved)
    for x in (effectful[0], elsewhere[0]):
        assert live_all[(row << 8) + x] == 1
        marked = bytearray(live_all)
        marked[(row << 8) + x] = 0
        with pytest.raises(ValueError, match="inert byte is not a bare self-loop"):
            build(live_all=bytes(marked))
    tagged = array("i", step)
    tagged[base + class_table[elsewhere[0]]] |= 2
    with pytest.raises(ValueError, match="skip edge is not a self-loop"):
        build(step=tagged)


# ----------------------------------------------------------------------
# streaming: chunking invariance and cross-chunk state
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trial", range(4))
def test_stream_chunking_invariance(trial):
    """Any split of the stream — mid-token, single bytes, MTU runs —
    yields the one-shot result, matching the compiled session exactly
    chunk by chunk."""
    grammar = xmlrpc()
    compiled = CompiledTagger(grammar)
    native = NativeTagger(grammar)
    data, _ = WorkloadGenerator(seed=300 + trial).stream(25)
    one_shot = compiled.events(data)
    rng = random.Random(trial)
    cs, ns = compiled.stream(), native.stream()
    collected = []
    for chunk in _random_chunks(data, rng):
        got = ns.feed(chunk)
        assert got == cs.feed(chunk)
        collected += got
    collected += ns.finish()
    assert collected == one_shot


def test_odd_length_inputs():
    grammar = xmlrpc()
    compiled = CompiledTagger(grammar)
    native = NativeTagger(grammar)
    data, _ = WorkloadGenerator(seed=5).stream(10)
    for n in (0, 1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 257):
        assert native.scan(data[:n]) == compiled.scan(data[:n])


# ----------------------------------------------------------------------
# error recovery and dead-region skipping
# ----------------------------------------------------------------------
def test_error_recovery_positions():
    grammar = xmlrpc()
    options = TaggerOptions(wiring=WiringOptions(error_recovery=True))
    compiled = CompiledTagger(grammar, options)
    native = NativeTagger(grammar, options)
    data, _ = WorkloadGenerator(seed=3).stream(5)
    corrupted = data[:300] + b"\xff\xfe<<>>broken" + data[300:]
    assert native.events_and_errors(corrupted) == compiled.events_and_errors(
        corrupted
    )


def test_error_positions_across_chunk_boundaries():
    """§5.2 error positions accumulate identically when the corruption
    spans feed() boundaries."""
    grammar = xmlrpc()
    options = TaggerOptions(wiring=WiringOptions(error_recovery=True))
    compiled = CompiledTagger(grammar, options)
    native = NativeTagger(grammar, options)
    data, _ = WorkloadGenerator(seed=13).stream(8)
    corrupted = data[:500] + b"\x00\x00garbage\xff" + data[500:]
    rng = random.Random(99)
    cs, ns = compiled.stream(), native.stream()
    for chunk in _random_chunks(corrupted, rng):
        assert ns.feed(chunk) == cs.feed(chunk)
    assert ns.finish() == cs.finish()
    assert ns.errors == cs.errors


@needs_native
def test_dead_region_is_skipped_and_exact():
    """Without recovery an unrecoverable error parks the machine in a
    dead state; the C fast-forward must skip through it while producing
    byte-identical output."""
    grammar = xmlrpc()
    compiled = CompiledTagger(grammar)
    native = NativeTagger(grammar)
    data, _ = WorkloadGenerator(seed=3).stream(4)
    poisoned = data + b"\x00\x01 dead region " * 4000 + data
    assert native.events(poisoned) == compiled.events(poisoned)
    assert native.native_active
    assert native.bytes_skipped > 0
    assert native.bytes_skipped < native.bytes_scanned


# ----------------------------------------------------------------------
# inert runs: every bare self-loop fast-forwarded, in any state
# ----------------------------------------------------------------------
START_MODES = {"once": WiringOptions(), "always": WiringOptions(start_mode="always")}
BASE64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


@pytest.fixture(scope="module", params=sorted(START_MODES))
def inert_pair(request):
    """(native, compiled) behavioral taggers over XML-RPC in one start
    mode: ``.compiled`` is each engine's scan loop, and each can drive
    a router."""
    options = TaggerOptions(wiring=START_MODES[request.param])
    native = BehavioralTagger(xmlrpc(), options, engine="native")
    return native, BehavioralTagger(xmlrpc(), options, engine="compiled")


def _inert_runs(ir, data: bytes) -> list[tuple[int, int]]:
    """The oracle: each maximal ``[start, end)`` run of bytes whose edge
    is a bare self-loop (same state, no effect), from the start state."""
    runs, state, start = [], 0, None
    for pos, byte in enumerate(data):
        edge = state * ir.n_classes + ir.class_table[byte]
        inert = ir.next[edge] == state and not ir.effect[edge]
        if inert and start is None:
            start = pos
        elif not inert and start is not None:
            runs.append((start, pos))
            start = None
        state = ir.next[edge]
    return runs + ([(start, len(data))] if start is not None else [])


def _base64_call(rng: random.Random, *sizes: int, method: str = "buy") -> bytes:
    return MethodCall(
        method,
        tuple(Base64Value("".join(rng.choices(BASE64, k=k))) for k in sizes),
    ).encode()


def _assert_native_matches(pair, pieces) -> None:
    """Native == compiled over ``pieces``: one-shot ``events`` and
    ``tag``, ``feed``/``finish`` with the low watermark after every
    chunk, and the router's by-span records; every byte the oracle
    calls inert is skipped, no other."""
    native, compiled = pair
    scan = native.compiled
    assert scan.native_active
    data = b"".join(pieces)
    inert = sum(end - start for start, end in _inert_runs(scan_ir_for(scan), data))
    skipped = scan.bytes_skipped
    assert scan.events(data) == compiled.compiled.events(data)
    assert scan.bytes_skipped - skipped == inert
    _assert_same_tokens(scan.tag(data), compiled.compiled.tag(data), data)
    ns, cs = scan.stream(), compiled.compiled.stream()
    routers = [ContentBasedRouter(tagger=t).stream() for t in pair]
    for piece in pieces:
        assert ns.feed_scan(piece) == cs.feed_scan(piece)
        assert ns.low_watermark() == cs.low_watermark()
        assert routers[0].feed_records(piece) == routers[1].feed_records(piece)
    assert ns.finish_scan() == cs.finish_scan()
    assert ns.errors == cs.errors
    assert routers[0].finish_records() == routers[1].finish_records()


@needs_native
def test_armed_inert_runs_of_every_length(inert_pair):
    """A Base64 payload is read while its token is armed: a run of L
    bare self-loops (L = 1..24, below, at and past the eight-byte
    test) ending mid-chunk, exactly at a chunk's end, and on the final
    byte of the stream."""
    ir = scan_ir_for(inert_pair[0].compiled)
    rng = random.Random(24)
    for length in range(1, 25):
        data = _base64_call(rng, length + 2)  # two payload bytes are live
        start, end = _inert_runs(ir, data)[-1]
        assert end - start == length and data[end : end + 2] == b"</"
        for pieces in (
            [data[:start], data[start : end + 3], data[end + 3 :]],  # mid-chunk
            [data[:start], data[start:end], data[end:]],  # at a chunk's end
            [data[: start + 1], data[start + 1 : end]],  # the final byte
        ):
            _assert_native_matches(inert_pair, pieces)


def _base64_stream(seed: int, calls: int = 6) -> bytes:
    """Calls with Base64 payloads of 1-2 KiB each, newline-separated:
    almost every byte is read while a payload token is armed."""
    rng = random.Random(seed)
    methods = ("deposit", "buy", "price")
    return b"\n".join(
        _base64_call(rng, *rng.choices(range(1024, 2049), k=2), method=rng.choice(methods))
        for _ in range(calls)
    )


@needs_native
@pytest.mark.parametrize("trial", range(3))
def test_base64_stream_at_random_chunk_splits(inert_pair, trial):
    """Payload runs cut anywhere: single bytes, odd runs, MTU runs."""
    data = _base64_stream(seed=trial)
    assert ContentBasedRouter(tagger=inert_pair[1]).route(data)
    _assert_native_matches(inert_pair, list(_random_chunks(data, random.Random(trial))))


@needs_native
@pytest.mark.parametrize("mode", sorted(START_MODES))
def test_corruption_inside_a_payload_recovers_alike(mode):
    """The recovery wiring reports §5.2 error positions; its armed
    payload states skip too, and corruption inside a payload stops a
    run at the same byte the compiled loop stops it — whichever of the
    256 byte values it starts with."""
    options = TaggerOptions(wiring=replace(START_MODES[mode], error_recovery=True))
    pair = tuple(BehavioralTagger(xmlrpc(), options, engine=e) for e in ("native", "compiled"))
    data = _base64_stream(seed=7, calls=3)
    cut = data.index(b"<base64>") + 500
    corrupted = data[:cut] + b"\x00<< broken ?>" + data[cut:]
    native, compiled = (t.compiled for t in pair)
    assert native.events_and_errors(corrupted) == compiled.events_and_errors(corrupted)
    assert compiled.events_and_errors(corrupted)[1], "no error position: a vacuous check"
    _assert_native_matches(pair, list(_random_chunks(corrupted, random.Random(mode))))
    call = _base64_call(random.Random(mode), 40)
    cut = call.index(b"<base64>") + 20
    for byte in range(256):
        _assert_native_matches(pair, [call[:cut], bytes([byte]) + call[cut:]])


@needs_native
def test_base64_payloads_are_skipped():
    """On a Base64-heavy stream nearly every byte is a bare self-loop
    of an armed state, and the kernel fast-forwards over all of them:
    the skip share is deterministic, a property of tables and input."""
    native = NativeTagger(xmlrpc())
    data = _base64_stream(seed=40, calls=8)
    assert native.events(data) == CompiledTagger(xmlrpc()).events(data)
    assert native.bytes_skipped / native.bytes_scanned >= 0.95


# ----------------------------------------------------------------------
# fallback ladder, construction, pickling
# ----------------------------------------------------------------------
def test_fallback_without_kernel_is_exact():
    """With the kernel gone the engine must degrade to the compiled
    loop, its base class, transparently: native → compiled is the only
    ladder."""
    assert NativeTagger.__mro__[1] is CompiledTagger
    grammar = xmlrpc()
    native = NativeTagger(grammar)
    native._nt = None
    assert not native.native_active
    compiled = CompiledTagger(grammar)
    data, _ = WorkloadGenerator(seed=8).stream(15)
    assert native.scan(data) == compiled.scan(data)
    assert native.events(data) == compiled.events(data)


def test_disable_env_kills_kernel(monkeypatch):
    """REPRO_DISABLE_NATIVE=1 must gate construction at every layer —
    fresh taggers fall down the ladder and capability says why."""
    monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    flags = capability(probe=True)
    assert flags["native"] is False
    assert flags["disabled_by_env"] is True
    native = NativeTagger(xmlrpc())
    assert not native.native_active
    compiled = CompiledTagger(xmlrpc())
    data, _ = WorkloadGenerator(seed=6).stream(5)
    assert native.scan(data) == compiled.scan(data)


@pytest.mark.parametrize("abi", [None, "3"])
def test_stale_prebuilt_kernel_is_refused(monkeypatch, abi):
    """A prebuilt ``_nativescan`` from another source (an in-place
    build older than the entries this one calls, which exports no or
    another ``ABI``) is never handed out: the loader falls through to
    the just-in-time build of this source, or to no kernel."""
    import sys
    import types

    import repro.core

    stale = types.ModuleType("repro.core._nativescan")
    if abi is not None:
        stale.ABI = abi
    monkeypatch.setitem(sys.modules, "repro.core._nativescan", stale)
    monkeypatch.setattr(repro.core, "_nativescan", stale, raising=False)
    monkeypatch.setattr(_native_build, "_cached_module", None)
    monkeypatch.setattr(_native_build, "_attempted", False)
    kernel = _native_build.load_kernel()
    if NATIVE_BUILT:
        # (Loading the build again may refill the stand-in's namespace
        # in place: what counts is what the loader hands out.)
        assert kernel.ABI == _native_build.abi_tag()
        assert hasattr(kernel, "assemble_routes")
        assert _native_build.kernel_source() == "jit"
    else:
        assert kernel is None


def test_behavioral_tagger_engine_selection():
    tagger = BehavioralTagger(xmlrpc(), engine="native")
    assert isinstance(tagger.compiled, NativeTagger)
    data, _ = WorkloadGenerator(seed=2).stream(5)
    reference = BehavioralTagger(xmlrpc(), engine="compiled")
    assert tagger.tag(data) == reference.tag(data)
    with pytest.raises(ValueError):
        BehavioralTagger(xmlrpc(), engine="nativ")


def test_pickle_roundtrip_preserves_engine():
    native = NativeTagger(xmlrpc())
    clone = pickle.loads(pickle.dumps(native))
    assert type(clone) is NativeTagger
    data, _ = WorkloadGenerator(seed=4).stream(5)
    assert clone.events(data) == native.events(data)


def test_service_specs_accept_native():
    from repro.service.errors import ServiceError
    from repro.service.service import RouterSpec, TaggerSpec

    tagger = TaggerSpec(grammar=xmlrpc(), engine="native").build()
    assert isinstance(tagger.compiled, NativeTagger)
    router = RouterSpec(engine="native").build()
    assert isinstance(router.tagger.compiled, NativeTagger)
    with pytest.raises(ServiceError):
        TaggerSpec(grammar=xmlrpc(), engine="interpreted").build()


def test_capability_shape():
    flags = capability()
    assert set(flags) == {"native", "disabled_by_env", "compiler", "source"}
    assert flags["source"] in (None, "jit", "prebuilt")

