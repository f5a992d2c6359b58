"""Every object the native kernel hands to Python is untracked by the
cyclic GC, equal to what the compiled twin returns, and leaks nothing.

A tuple subclass (``DetectEvent``, ``TaggedToken``, ``RouteRecord``) is
never untracked by CPython itself, so a drain of thousands of them used
to set off collections that walk the growing result list again and
again.  The kernel's one tuple builder (``filled`` in ``_nativescan.c``)
untracks each tuple it fills; the header there says why no cycle can run
through one.  This file pins, for every drain mode and the routed-record
assembler:

* ``gc.is_tracked`` is ``False`` for every object built, end-of-data
  hits and snapshot flushes included;
* the objects equal the compiled twin's;
* dropped results give back every reference they took (the result types
  and the units every hit shares);
* a collection run while results are held leaves them intact.

Skips where the kernel is not live, as ``test_nativescan.py`` does.
"""

import gc
import sys

import pytest

from repro.apps.xmlrpc import ContentBasedRouter, WorkloadGenerator
from repro.apps.xmlrpc.messages import RouteRecord
from repro.core.compiled import CompiledTagger
from repro.core.nativescan import NativeTagger, capability
from repro.core.scanplan import DetectEvent
from repro.core.tagger import BehavioralTagger
from repro.core.tokens import TaggedToken
from repro.grammar.examples import xmlrpc

pytestmark = pytest.mark.skipif(
    not capability(probe=True)["native"],
    reason="native kernel unavailable (no compiler or disabled)",
)

GRAMMAR = xmlrpc()
#: A seeded XML-RPC stream that ends on ``</methodCall>``: its last
#: token is resolved by end-of-data, never by a look-ahead byte.
DATA = WorkloadGenerator(seed=7).stream(12)[0].rstrip()
PIECE = 61  # bytes per streamed chunk: every chunk edge cuts a token


@pytest.fixture(scope="module")
def native():
    tagger = NativeTagger(GRAMMAR)
    assert tagger.native_active
    return tagger


@pytest.fixture(scope="module")
def compiled():
    return CompiledTagger(GRAMMAR)


def _pieces(data: bytes) -> list[bytes]:
    return [data[i : i + PIECE] for i in range(0, len(data), PIECE)]


def _streamed(tagger) -> list[list]:
    """Per call, the ``(event, match start)`` pairs of one chunked scan:
    a ``feed_scan`` per chunk with a ``finish_scan_snapshot`` after each,
    then ``finish_scan``."""
    stream = tagger.stream()
    calls = []
    for piece in _pieces(DATA):
        calls.append(stream.feed_scan(piece))
        calls.append(stream.finish_scan_snapshot())
    calls.append(stream.finish_scan())
    return calls


def _routed(engine: str) -> list[list]:
    """Per call, the ``RouteRecord``s one chunked routing session
    returns (``feed_records`` per chunk, then ``finish_records``)."""
    router = ContentBasedRouter(
        grammar=GRAMMAR, tagger=BehavioralTagger(GRAMMAR, engine=engine)
    )
    session = router.stream()
    calls = [session.feed_records(piece) for piece in _pieces(DATA)]
    calls.append(session.finish_records())
    return calls


def _untracked(objects) -> None:
    tracked = [obj for obj in objects if gc.is_tracked(obj)]
    assert not tracked, f"{len(tracked)} kernel-built objects tracked"


# ----------------------------------------------------------------------
def test_events_are_untracked_and_equal_the_twin(native, compiled):
    events = native.events(DATA)
    assert events[-1].end == len(DATA), "no end-of-data hit: vacuous"
    assert all(type(event) is DetectEvent for event in events)
    _untracked(events)
    assert events == compiled.events(DATA)


def test_tokens_are_untracked_and_equal_the_twin(native, compiled):
    tokens = native.tag(DATA)
    assert tokens[-1].end == len(DATA), "no end-of-data tail: vacuous"
    assert all(type(token) is TaggedToken for token in tokens)
    _untracked(tokens)
    assert [tuple(t) for t in tokens] == [
        tuple(t) for t in compiled.tag(DATA)
    ]


def test_streamed_pairs_and_their_events_are_untracked(native, compiled):
    calls = _streamed(native)
    pairs = [pair for call in calls for pair in call]
    assert len(pairs) > len(calls), "too few hits: a vacuous comparison"
    assert calls[-1], "finish_scan resolved nothing: vacuous"
    assert any(calls[1:-1:2]), "no snapshot flush found a hit: vacuous"
    _untracked(pairs)
    _untracked(event for event, _start in pairs)
    assert calls == _streamed(compiled)


def test_route_records_are_untracked_and_equal_the_twin():
    calls = _routed("native")
    records = [record for call in calls for record in call]
    assert len(records) >= 12 and calls[-1], "vacuous comparison"
    assert all(type(record) is RouteRecord for record in records)
    _untracked(records)
    assert calls == _routed("compiled")


def test_dropped_results_return_every_reference(native):
    """100 rounds of every drain, results dropped: each instance holds
    a reference to its heap type and its unit, so one leaked object
    moves a count."""
    counted = [DetectEvent, TaggedToken, RouteRecord, *native.tables.units]

    def one_round():
        native.events(DATA)
        native.tag(DATA)
        _streamed(native)
        _routed("native")

    one_round()  # warm: tables, plans and caches built once
    gc.collect()
    before = [sys.getrefcount(obj) for obj in counted]
    for _ in range(100):
        one_round()
    gc.collect()
    assert [sys.getrefcount(obj) for obj in counted] == before


def test_a_collection_leaves_held_results_intact(native, compiled):
    held = (
        native.events(DATA),
        native.tag(DATA),
        _streamed(native),
        _routed("native"),
    )
    for generation in (0, 1, 2):
        gc.collect(generation)
    events, tokens, calls, routes = held
    assert events == compiled.events(DATA)
    assert [tuple(t) for t in tokens] == [tuple(t) for t in compiled.tag(DATA)]
    assert all(t.lexeme == DATA[t.start : t.end] for t in tokens)
    assert calls == _streamed(compiled)
    assert routes == _routed("compiled")
