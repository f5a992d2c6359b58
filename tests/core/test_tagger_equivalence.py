"""Behavioral tagger ≡ gate-level netlist simulation.

The central correctness property of the reproduction: the fast
software twin and the generated hardware must produce identical
detection events (occurrence, end position) on any input — valid,
invalid, adversarial or random.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.generator import TaggerGenerator, TaggerOptions
from repro.core.tagger import BehavioralTagger, GateLevelTagger
from repro.core.tokenizer import TokenizerTemplateOptions
from repro.core.wiring import WiringOptions
from repro.grammar.examples import balanced_parens, if_then_else, xmlrpc


@pytest.fixture(scope="module")
def ite_pair():
    grammar = if_then_else()
    circuit = TaggerGenerator().generate(grammar)
    return BehavioralTagger(grammar), GateLevelTagger(circuit)


@pytest.fixture(scope="module")
def xmlrpc_pair():
    grammar = xmlrpc()
    circuit = TaggerGenerator().generate(grammar)
    return BehavioralTagger(grammar), GateLevelTagger(circuit)


class TestFixedInputs:
    @pytest.mark.parametrize(
        "data",
        [
            b"if true then go else stop",
            b"go",
            b"   stop   ",
            b"if if if",          # non-conforming
            b"iffy gone stopper",  # embedded keywords
            b"",
            b"true false then",
            b"if  true\tthen\n go else stop",
        ],
    )
    def test_ite(self, ite_pair, data):
        behavioral, gate = ite_pair
        assert behavioral.events(data) == gate.events(data)

    @pytest.mark.parametrize(
        "data",
        [
            b"<methodCall><methodName>buy</methodName><params></params></methodCall>",
            b"<params><methodName>oops</methodName>",       # wrong order
            b"<methodCall><methodName></methodName>",        # empty string
            b"random noise < > 123",
            b"<i4>42</i4>",                                  # fragment
        ],
    )
    def test_xmlrpc(self, xmlrpc_pair, data):
        behavioral, gate = xmlrpc_pair
        assert behavioral.events(data) == gate.events(data)

    def test_full_message_tokens_and_lexemes(self, xmlrpc_pair, xmlrpc_message):
        behavioral, gate = xmlrpc_pair
        beh_tokens = behavioral.tag(xmlrpc_message)
        gate_tokens = gate.tag(xmlrpc_message)
        assert [
            (t.token, t.occurrence, t.start, t.end, t.lexeme)
            for t in beh_tokens
        ] == [
            (t.token, t.occurrence, t.start, t.end, t.lexeme)
            for t in gate_tokens
        ]

    def test_start_recovery_over_a_stream(self, xmlrpc_pair, xmlrpc_stream):
        """Start recovery reverses the stream once and matches each
        event from its own offset: the tokens are those the behavioral
        tagger's earliest-start registers give, message after message."""
        behavioral, gate = xmlrpc_pair
        assert [tuple(t)[:5] for t in gate.tag(xmlrpc_stream)] == [
            tuple(t)[:5] for t in behavioral.tag(xmlrpc_stream)
        ]

    def test_multi_message_stream(self, xmlrpc_pair, xmlrpc_stream):
        behavioral, gate = xmlrpc_pair
        assert behavioral.events(xmlrpc_stream) == gate.events(xmlrpc_stream)


class TestEncoderConsistency:
    def test_index_stream_matches_events(self, ite_pair):
        behavioral, gate = ite_pair
        data = b"if true then go else stop"
        events = gate.events(data)
        index_stream = gate.index_stream(data)
        # Every cycle with exactly one detection must appear in the
        # index stream with that occurrence's index.
        by_end = {}
        for event in events:
            by_end.setdefault(event.end, []).append(event)
        indexed = dict(index_stream)
        for end, evs in by_end.items():
            if len(evs) == 1:
                expected = gate.circuit.index_of(evs[0].occurrence)
                assert indexed[end] == expected

    def test_behavioral_index_matches_circuit(self, ite_pair):
        behavioral, gate = ite_pair
        data = b"go"
        beh = behavioral.tag(data)[0]
        circuit_index = gate.circuit.index_of(beh.occurrence)
        assert beh.index == circuit_index


class TestOptionVariants:
    @pytest.mark.parametrize(
        "options",
        [
            TaggerOptions(wiring=WiringOptions(context_duplication=False)),
            TaggerOptions(wiring=WiringOptions(start_mode="always")),
            TaggerOptions(wiring=WiringOptions(loop_on_accept=False)),
            TaggerOptions(
                wiring=WiringOptions(
                    tokenizer=TokenizerTemplateOptions(longest_match=False)
                )
            ),
            TaggerOptions(
                wiring=WiringOptions(
                    tokenizer=TokenizerTemplateOptions(keyword_boundary=True)
                )
            ),
        ],
        ids=["no-dup", "always", "no-loop", "no-longest", "boundary"],
    )
    def test_equivalence_under_options(self, options):
        grammar = if_then_else()
        behavioral = BehavioralTagger(grammar, options)
        gate = GateLevelTagger(TaggerGenerator(options).generate(grammar))
        for data in (
            b"if true then go else stop",
            b"go stop go",
            b"gone iffy",
            b"if true then if false then go else go else stop",
        ):
            assert behavioral.events(data) == gate.events(data), data


class TestPropertyEquivalence:
    @given(
        data=st.text(
            alphabet="ifthenlsgopt ruefa\t\n", min_size=0, max_size=24
        ).map(lambda s: s.encode())
    )
    @settings(max_examples=40, deadline=None)
    def test_ite_random_text(self, ite_pair, data):
        behavioral, gate = ite_pair
        assert behavioral.events(data) == gate.events(data)

    @given(
        parts=st.lists(
            st.sampled_from(
                [
                    b"<methodCall>", b"</methodCall>", b"<methodName>",
                    b"</methodName>", b"<params>", b"</params>",
                    b"<param>", b"</param>", b"<i4>", b"</i4>",
                    b"buy", b"42", b"-7", b" ", b"\n", b"x",
                ]
            ),
            min_size=0,
            max_size=10,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_xmlrpc_random_fragments(self, xmlrpc_pair, parts):
        behavioral, gate = xmlrpc_pair
        data = b"".join(parts)
        assert behavioral.events(data) == gate.events(data)


class TestBalancedParens:
    def test_equivalence(self):
        grammar = balanced_parens()
        behavioral = BehavioralTagger(grammar)
        gate = GateLevelTagger(TaggerGenerator().generate(grammar))
        for data in (b"((0))", b"(0", b"0))", b"()", b"0 0", b"((((0"):
            assert behavioral.events(data) == gate.events(data), data
