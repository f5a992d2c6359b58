"""Follow-set wiring: structure of the assembled scanner."""


import pytest

from repro.core.decoder import DecoderBank
from repro.core.wiring import (
    WiringOptions,
    build_scanner,
    estimate_conflict_groups,
)
from repro.rtl.netlist import Netlist


def _scanner(grammar, options=None):
    nl = Netlist("scan")
    bank = DecoderBank(nl, grammar.lexspec.delimiters.matched_bytes())
    scanner = build_scanner(nl, bank, grammar, options)
    return nl, scanner


class TestStructure:
    def test_one_instance_per_occurrence(self, ite_grammar):
        _nl, scanner = _scanner(ite_grammar)
        assert len(scanner.instances) == 7

    def test_collapsed_one_per_terminal(self, xmlrpc_grammar):
        _nl, dup = _scanner(xmlrpc_grammar)
        _nl2, collapsed = _scanner(
            xmlrpc_grammar, WiringOptions(context_duplication=False)
        )
        assert len(collapsed.instances) == len(
            xmlrpc_grammar.used_terminals()
        )
        assert len(dup.instances) > len(collapsed.instances)

    def test_netlist_validates(self, xmlrpc_grammar):
        nl, _scanner_obj = _scanner(xmlrpc_grammar)
        nl.validate()

    def test_always_start_mode_uses_const_enable(self, ite_grammar):
        nl, scanner = _scanner(ite_grammar, WiringOptions(start_mode="always"))
        start_units = [o for o in scanner.plan.units if o in scanner.plan.starts]
        for unit in start_units:
            assert nl.is_const(scanner.instances[unit].enable) == 1

    def test_shared_glushkov_between_contexts(self, xmlrpc_grammar):
        _nl, scanner = _scanner(xmlrpc_grammar)
        strings = [
            inst
            for occ, inst in scanner.instances.items()
            if occ.terminal.name == "STRING"
        ]
        assert len(strings) == 3
        assert strings[0].glushkov is strings[1].glushkov


class TestConflictGroups:
    def test_value_context_digit_tokens_conflict(self, xmlrpc_grammar):
        _nl, scanner = _scanner(xmlrpc_grammar)
        groups = estimate_conflict_groups(scanner)
        # INT (i4 context) and INT (int context) never share an
        # enabler, but INT/DOUBLE-style collisions inside one context
        # exist in the dateTime element (YEAR/MONTH/DAY share digits
        # only sequentially). At minimum the groups structure is sane:
        flattened = [u for g in groups for u in g]
        assert len(flattened) == len(set(flattened))
        for group in groups:
            assert len(group) >= 2

    def test_lower_priority_for_broader_patterns(self):
        from repro.grammar.yacc_parser import parse_yacc_grammar

        g = parse_yacc_grammar(
            """
            WORD [a-z0-9]+
            NUM  [0-9]+
            %%
            s: "k" v;
            v: WORD | NUM;
            %%
            """
        )
        _nl, scanner = _scanner(g)
        groups = estimate_conflict_groups(scanner)
        assert len(groups) == 1
        ordered = [scanner.plan.units[i].terminal.name for i in groups[0]]
        # WORD (bigger alphabet) must come first = lowest priority.  The
        # restarted "k" detects with WORD on "k 1k " (NUM's accept
        # re-enables it while WORD is still matching), so it joins the
        # group, last: the narrowest alphabet.
        assert ordered == ["WORD", "NUM", "k"]


class TestConflictSoundness:
    def test_xmlrpc_streams_are_one_hot(self, xmlrpc_grammar):
        """Validates the §3.4 assumption the or-tree encoder relies on:
        'only one tokenizer output will be asserted at any given clock
        cycle' — true on conforming XML-RPC streams."""
        from collections import Counter

        from repro.apps.xmlrpc import WorkloadGenerator
        from repro.core.tagger import BehavioralTagger

        stream, _truth = WorkloadGenerator(seed=3).stream(15)
        ends = Counter(
            e.end for e in BehavioralTagger(xmlrpc_grammar).events(stream)
        )
        assert all(count == 1 for count in ends.values())

    def test_simultaneous_detects_share_a_group(self):
        """When simultaneity is engineered, the heuristic groups it: in
        both wirings, and through the loop-on-accept edges the netlist
        wires."""
        from repro.core.generator import TaggerOptions
        from repro.core.tagger import BehavioralTagger
        from repro.grammar.yacc_parser import parse_yacc_grammar

        num_word = parse_yacc_grammar(
            """
            NUM  [0-9]+
            WORD [a-z0-9]+
            %%
            s: "k" v;
            v: NUM | WORD;
            %%
            """
        )
        restart = parse_yacc_grammar(
            """
            W [a-z]+
            N [a-z0-9]+
            %%
            s: W t;
            t: N | ;
            %%
            """
        )
        # Two units enabled by different start tokens, both in flight.
        staggered = parse_yacc_grammar(
            """
            C1 [b-z]+
            C2 [c-z]+
            %%
            s: "a" C1 | "ab" C2;
            %%
            """
        )
        # (grammar, wiring, input, ends where two units both fire)
        cases = [
            (num_word, WiringOptions(), b"k 42", [4]),
            (num_word, WiringOptions(context_duplication=False), b"k 42", [4]),
            (restart, WiringOptions(), b"abc de fg", [6, 9]),
            (staggered, WiringOptions(), b"abcd", [4]),
        ]
        for grammar, wiring, data, ends in cases:
            tagger = BehavioralTagger(grammar, TaggerOptions(wiring=wiring))
            fired: dict[int, set] = {}
            for event in tagger.events(data):
                fired.setdefault(event.end, set()).add(event.occurrence)
            simultaneous = {end: units for end, units in fired.items() if len(units) > 1}
            assert sorted(simultaneous) == ends
            assert all(len(units) == 2 for units in simultaneous.values())

            _nl, scanner = _scanner(grammar, wiring)
            groups = estimate_conflict_groups(scanner)
            position = {u: i for i, u in enumerate(scanner.plan.units)}
            for units in simultaneous.values():
                indices = {position[u] for u in units}
                assert any(indices <= set(group) for group in groups), (
                    wiring,
                    sorted(map(str, units)),
                )


    def test_past_the_state_cap_shared_last_bytes_group(self, monkeypatch):
        """Without a closed automaton the estimate groups every two
        units whose last positions share a byte: still sound."""
        from repro.core import scanir
        from repro.grammar.yacc_parser import parse_yacc_grammar

        monkeypatch.setattr(scanir, "_MAX_PRODUCT_STATES", 1)
        grammar = parse_yacc_grammar(
            """
            C1 [b-z]+
            C2 [c-z]+
            %%
            s: "a" C1 | "ab" C2;
            %%
            """
        )
        _nl, scanner = _scanner(grammar)
        assert scanir.scan_ir_for(scanner) is None
        names = [
            [scanner.plan.units[i].terminal.name for i in group]
            for group in estimate_conflict_groups(scanner)
        ]
        # "ab" ends on b, which C1 can end on too; C2's bytes are C1's.
        assert names == [["C1", "C2", "ab"]]


class TestLoopOnAccept:
    def test_restart_edges_present(self, xmlrpc_grammar):
        _nl, scanner = _scanner(xmlrpc_grammar)
        # With loop_on_accept the start tokenizer's enable includes the
        # accepting detect; verified behaviorally: two messages tag.
        from repro.core.tagger import BehavioralTagger

        tagger = BehavioralTagger(xmlrpc_grammar)
        one = b"<methodCall><methodName>a1</methodName><params></params></methodCall>"
        tokens = tagger.tag(one + b"\n" + one)
        assert [t.token for t in tokens].count("<methodCall>") == 2

    def test_no_loop_single_message_only(self, xmlrpc_grammar):
        from repro.core.generator import TaggerOptions
        from repro.core.tagger import BehavioralTagger

        options = TaggerOptions(wiring=WiringOptions(loop_on_accept=False))
        tagger = BehavioralTagger(xmlrpc_grammar, options)
        one = b"<methodCall><methodName>a1</methodName><params></params></methodCall>"
        tokens = tagger.tag(one + b"\n" + one)
        assert [t.token for t in tokens].count("<methodCall>") == 1


def test_unknown_start_mode_is_refused():
    """Only the two modes of §3.3 exist: any other value would scan
    like ``"once"`` yet key plans, tables and artifacts of its own."""
    for mode in ("once", "always"):
        assert WiringOptions(start_mode=mode).start_mode == mode
    with pytest.raises(ValueError, match="start_mode"):
        WiringOptions(start_mode="first")
