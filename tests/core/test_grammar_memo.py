"""Everything compiled from a grammar lives in the grammar's memo
(:meth:`Grammar.derived`): it is shared while the grammar lives, freed
with it, and never pickled with it."""

import gc
import pickle
import weakref

import pytest

from repro.apps.structgen import build_mask_table, synthetic_vocab
from repro.apps.xmlrpc import ContentBasedRouter, WorkloadGenerator
from repro.core.artifact import build_artifact, load_artifact
from repro.core.generator import TaggerGenerator
from repro.core.nativescan import NativeTagger
from repro.core.options import WiringOptions
from repro.core.scanplan import build_scan_plan
from repro.core.stack import StackTagger
from repro.core.tagger import BehavioralTagger, GateLevelTagger
from repro.core.vectorscan import NUMPY_AVAILABLE
from repro.grammar import analysis
from repro.grammar.examples import if_then_else, xmlrpc
from repro.software.ll1 import LL1Parser
from repro.software.recursive_descent import RecursiveDescentParser

SAMPLE, _ = WorkloadGenerator(seed=3).stream(2)


def _engine(name):
    def use(grammar):
        tagger = BehavioralTagger(grammar, engine=name)
        assert tagger.tag(SAMPLE)

    return use


def _gate_level(grammar):
    circuit = TaggerGenerator().generate(grammar)
    assert GateLevelTagger(circuit).tag(b"if true then go else stop")


def _router_session(grammar):
    router = ContentBasedRouter(
        grammar=grammar, tagger=BehavioralTagger(grammar, engine="native")
    )
    session = router.stream()
    assert session.feed(SAMPLE) + session.finish()


def _mask_table(grammar):
    build_mask_table(grammar, synthetic_vocab(size=384, seed=7))


USES = {
    "compiled": (xmlrpc, _engine("compiled")),
    "native": (xmlrpc, _engine("native")),
    "vector": (xmlrpc, _engine("vector")),
    "interpreted": (xmlrpc, _engine("interpreted")),
    "gate-level": (if_then_else, _gate_level),
    "router-session": (xmlrpc, _router_session),
    "mask-table": (xmlrpc, _mask_table),
}


@pytest.mark.parametrize("use", USES)
def test_dropped_grammar_is_freed(use):
    if use == "vector" and not NUMPY_AVAILABLE:
        pytest.skip("the vector engine needs NumPy")
    make, run = USES[use]
    grammar = make()
    run(grammar)
    ref = weakref.ref(grammar)
    del grammar
    gc.collect()
    assert ref() is None


def test_token_automata_are_freed_with_the_grammar():
    """The plan's Glushkov automata live in the grammar's memo only: no
    process-wide cache keeps a dropped grammar's tokens alive."""
    grammar = xmlrpc()
    plan = build_scan_plan(grammar, WiringOptions())
    refs = [weakref.ref(auto) for auto in plan.automata.values()]
    assert refs
    del grammar, plan
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_loaded_artifact_grammar_is_freed():
    artifact = load_artifact(build_artifact(xmlrpc()))
    assert artifact.tagger().tag(SAMPLE)
    ref = weakref.ref(artifact.grammar)
    del artifact
    gc.collect()
    assert ref() is None


def test_pickle_carries_no_compiled_products():
    grammar = xmlrpc()
    before = pickle.dumps(grammar)
    NativeTagger(grammar).tag(SAMPLE)
    assert pickle.dumps(grammar) == before
    clone = pickle.loads(before)
    assert clone._derived == {}
    assert NativeTagger(clone).tag(SAMPLE) == NativeTagger(grammar).tag(SAMPLE)


def test_parsers_share_the_grammar_analysis(monkeypatch):
    """The stack tagger and the software parsers read the grammar's
    memoized analysis (and the tagger the plan's token automata): five
    of each analyse the grammar once, and hold it no longer than it
    lives."""
    calls = []
    analyze = analysis.analyze_grammar
    monkeypatch.setattr(
        analysis, "analyze_grammar", lambda g: calls.append(1) or analyze(g)
    )
    grammar = if_then_else()
    for _ in range(5):
        tagger = StackTagger(grammar)
        assert tagger.accepts(b"if true then go else stop")
        assert tagger.automata is build_scan_plan(grammar, WiringOptions()).automata
        LL1Parser(grammar)
        RecursiveDescentParser(grammar)
    assert len(calls) == 1
    ref = weakref.ref(grammar)
    del grammar, tagger
    gc.collect()
    assert ref() is None


def test_one_build_per_key():
    grammar = xmlrpc()
    calls = []
    for _ in range(3):
        assert grammar.derived("k", lambda: calls.append(1) or len(calls)) == 1
    assert grammar.derived("none", lambda: None) is None
    assert grammar.derived("none", lambda: 1 / 0) is None
