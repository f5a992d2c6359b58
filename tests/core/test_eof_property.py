"""End-of-data and the register file: the kernel ≡ its compiled twin.

The native engine resolves end-of-data inside the kernel call (each
state's end-of-data program) and reads the low watermark from the
register file in place; :meth:`CompiledTagger._flush` and
:meth:`CompiledTagger._watermark` are the portable twins.  Property:
for XML-RPC streams (whole, or cut anywhere, so that end-of-data has
pending matches to resolve) and if-then-else sentences, at random split
points, every end-of-data observer agrees between the two — ``events``,
``tag``, a stream's ``finish``, ``finish_scan_snapshot`` with feeding
going on afterwards, ``RouterSession.peek_finish`` and
``finish_records``, and ``low_watermark`` after every chunk.  Without a
kernel (``REPRO_DISABLE_NATIVE=1``, no compiler) the same properties
run the compiled twin against itself.
"""

from hypothesis import given, settings, strategies as st

from repro.apps.xmlrpc.router import ContentBasedRouter
from repro.apps.xmlrpc.workload import WorkloadGenerator
from repro.core.compiled import CompiledTagger
from repro.core.nativescan import NativeTagger, capability
from repro.core.tagger import BehavioralTagger
from repro.grammar.examples import if_then_else, xmlrpc

NATIVE = capability(probe=True)["native"]
ITE_WORDS = ["if", "then", "else", "go", "stop", "true", "false", "i", "th"]


@st.composite
def xmlrpc_inputs(draw) -> bytes:
    stream, _truth = WorkloadGenerator(seed=draw(st.integers(0, 10**6))).stream(
        draw(st.integers(1, 3))
    )
    return stream[: draw(st.integers(0, len(stream)))]


@st.composite
def ite_inputs(draw) -> bytes:
    words = draw(st.lists(st.sampled_from(ITE_WORDS), max_size=12))
    seps = draw(st.lists(st.sampled_from([" ", "", "  ", "x"]), min_size=len(words)))
    return "".join(w + s for w, s in zip(words, seps)).encode()


def _pieces(data: bytes, cuts) -> list[bytes]:
    bounds = [0, *sorted(c % (len(data) + 1) for c in cuts), len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


def _pair(grammar):
    native = NativeTagger(grammar)
    assert native.native_active == NATIVE
    return native, CompiledTagger(grammar)


TAGGERS = {"xmlrpc": _pair(xmlrpc()), "ite": _pair(if_then_else())}
CUTS = st.lists(st.integers(0, 1 << 16), max_size=5)


def _observe(tagger, pieces) -> list:
    """Everything end-of-data and the register file show, chunk by
    chunk: the completed pairs, the snapshot flush (feeding goes on
    after it), the low watermark; then the final flush."""
    stream = tagger.stream()
    seen = []
    for piece in pieces:
        seen.append(stream.feed_scan(piece))
        seen.append(stream.finish_scan_snapshot())
        seen.append(stream.low_watermark())
    seen.append(stream.finish_scan())
    return seen


def _assert_twins(name: str, data: bytes, cuts) -> None:
    native, compiled = TAGGERS[name]
    assert native.events(data) == compiled.events(data)
    assert [tuple(t) for t in native.tag(data)] == [
        tuple(t) for t in compiled.tag(data)
    ]
    pieces = _pieces(data, cuts)
    assert _observe(native, pieces) == _observe(compiled, pieces)
    stream = native.stream()
    events = [e for piece in pieces for e in stream.feed(piece)]
    assert events + stream.finish() == compiled.events(data)


@settings(max_examples=60, deadline=None)
@given(data=xmlrpc_inputs(), cuts=CUTS)
def test_xmlrpc_end_of_data_twins(data, cuts):
    _assert_twins("xmlrpc", data, cuts)


@settings(max_examples=60, deadline=None)
@given(data=ite_inputs(), cuts=CUTS)
def test_ite_end_of_data_twins(data, cuts):
    _assert_twins("ite", data, cuts)


def _route(engine: str, pieces) -> list:
    router = ContentBasedRouter(tagger=BehavioralTagger(xmlrpc(), engine=engine))
    session = router.stream()
    seen = []
    for piece in pieces:
        seen.append(session.feed_records(piece))
        seen.append(session.peek_finish())
        seen.append(session._stream.low_watermark())
    seen.append(session.finish_records())
    return seen


@settings(max_examples=40, deadline=None)
@given(data=xmlrpc_inputs(), cuts=CUTS)
def test_router_end_of_data_twins(data, cuts):
    """The session's packed end-of-data (records from the kernel, then
    ``assemble_routes``) against the compiled twin's list path."""
    pieces = _pieces(data, cuts)
    assert _route("native", pieces) == _route("compiled", pieces)


@settings(max_examples=30, deadline=None)
@given(data=xmlrpc_inputs(), cut=st.integers(0, 1 << 16))
def test_copy_is_independent(data, cut):
    """A copy is a snapshot: scanning on it leaves the original's
    registers, state and position as they were (and vice versa)."""
    for tagger in TAGGERS["xmlrpc"]:
        head, tail = _pieces(data, [cut])
        state = tagger.new_state()
        tagger._run(head, state, None, [])
        before = (state.tid8, state.pos, state.regs.tobytes())
        other = state.copy()
        assert (other.tid8, other.pos, other.regs.tobytes()) == before
        tagger._run(tail + b"<methodCall><methodName>x", other, None, [])
        assert (state.tid8, state.pos, state.regs.tobytes()) == before
        after = (other.tid8, other.pos, other.regs.tobytes())
        tagger._run(tail, state, None, [])
        assert (other.tid8, other.pos, other.regs.tobytes()) == after
