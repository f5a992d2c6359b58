"""The register merges no stock grammar reaches: native ≡ compiled ≡ vector.

An effect program folds *existing* earliest-start registers in two
places: an event over k > 1 candidate positions (``OP_EVENT`` with
``k > 1``: two last positions of one token lit on the same byte) and a
start-register copy (``OP_COPY``, reading the registers of the
positions it comes from).  The paper's grammars and the random grammar
generator never produce either — every move there is entry-lit and
every event names one position — so this suite builds a token that
does: ``x[a-z]*y|x[a-y]*w|x[a-y]*y``, whose alternatives overlap on
every byte but ``z`` — which kills all but the first — and two of
which end on ``y``.  With tokens entered at every byte, an ``x`` inside
a match restarts the others, so the registers one move reads hold
different starts and must all be read before any is set.  The suite
first proves that the inputs walk those edges (and an end-of-data fold
over k > 1), so it cannot go vacuous, then holds the three engines
equal one-shot and at every two-way chunk split, under both start
wirings.
"""

import pytest

from repro.core.compiled import CompiledTagger
from repro.core.nativescan import NativeTagger, capability
from repro.core.options import TaggerOptions, WiringOptions
from repro.core.scanir import scan_ir_for
from repro.core.vectorscan import NUMPY_AVAILABLE, VectorTagger
from repro.grammar.yacc_parser import parse_yacc_grammar

GRAMMAR_TEXT = """\
TOK               x[a-z]*y|x[a-y]*w|x[a-y]*y
%%
S: TOK S | ";";
%%
"""

#: Overlapping candidates, ``x`` re-entering inside a match, a ``z``
#: that kills one alternative, a match cut by end-of-data.
INPUTS = [
    b"xxaxy",
    b"xxaxy;",
    b"xzxaxw;",
    b"xaxayxay;xay;",
    b"xxzaxyxxaxy;xazy;xy",
    b"xaxbyxy;xaaaaaaaaaaay;xxxxxxxxxy;xzxaxaxw",
]


@pytest.fixture(scope="module", params=["once", "always"])
def engines(request):
    grammar = parse_yacc_grammar(GRAMMAR_TEXT, name="merge-paths")
    options = TaggerOptions(wiring=WiringOptions(start_mode=request.param))
    native, vector = NativeTagger(grammar, options), VectorTagger(grammar, options)
    # Where a loop can run, it does: no engine quietly falls back.
    assert native.native_active == capability(probe=True)["native"]
    assert vector.vector_active == NUMPY_AVAILABLE
    return CompiledTagger(grammar, options), native, vector


def _walk(ir, data: bytes):
    """The effects the IR's edges run over ``data``, and the end state."""
    tid, seen = 0, []
    for byte in data:
        edge = tid * ir.n_classes + ir.class_table[byte]
        if ir.effect[edge]:
            seen.append(ir.effects[ir.effect[edge]])
        tid = ir.next[edge]
    return seen, tid


def test_inputs_reach_both_merges(engines):
    """Not vacuous: the lowered IR has, on the edges these inputs walk,
    an event over k > 1 registers and a move with sources, and one
    input ends in a state whose end-of-data event folds k > 1."""
    compiled = engines[0]
    ir = scan_ir_for(compiled)
    assert ir is not None
    multi = sources = eof_multi = False
    for data in INPUTS:
        seen, end = _walk(ir, data)
        for events, start_ops, _err in seen:
            multi |= any(len(q) > 1 for _u, q in events or ())
            sources |= bool(start_ops and start_ops[0])  # copies
        eof = ir.effects[ir.eof[end]][0] if ir.eof[end] else ()
        eof_multi |= any(len(q) > 1 for _u, q in eof)
    assert multi and sources and eof_multi


def _scan_split(tagger, data: bytes, cut: int):
    """The pairs of ``data`` fed in two chunks, and the low watermark
    between them (a min over every register of the live units)."""
    stream = tagger.stream()
    head = stream.feed_scan(data[:cut])
    watermark = stream.low_watermark()
    return head + stream.feed_scan(data[cut:]) + stream.finish_scan(), watermark


@pytest.mark.parametrize("data", INPUTS)
def test_engines_agree_one_shot(engines, data):
    compiled, native, vector = engines
    for other in (native, vector):
        assert other.scan(data) == compiled.scan(data)
        assert other.events(data) == compiled.events(data)
        assert [tuple(t) for t in other.tag(data)] == [
            tuple(t) for t in compiled.tag(data)
        ]


@pytest.mark.parametrize("data", INPUTS)
def test_engines_agree_at_every_split(engines, data):
    one_shot = engines[0].scan(data)
    for cut in range(len(data) + 1):
        expected = _scan_split(engines[0], data, cut)
        assert expected[0] == one_shot
        for tagger in engines[1:]:
            assert _scan_split(tagger, data, cut) == expected, (tagger, cut)
