"""Shared scan plan: the one unit wiring derived per grammar.

Every tagger engine — the interpreted :class:`~repro.core.tagger.
BehavioralTagger` loop, the table-driven :class:`~repro.core.
compiled.CompiledTagger` and its descendants — and both netlist
generators (:func:`~repro.core.wiring.build_scanner`, the wide
generator) operate on the same derived structure: the
unit list (terminal occurrences, or collapsed terminals when context
duplication is off), the Follow-set successor wiring, the start and
accepting sets, one Glushkov automaton per token, and the
per-token longest-match/boundary byte sets. This module derives that
structure once per (grammar, wiring) pair and memoizes it on the
grammar (:meth:`~repro.grammar.cfg.Grammar.derived`), so
applications that construct taggers repeatedly (one router per flow,
one tagger per benchmark round) stop paying the rebuild cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from repro.core.options import WiringOptions
from repro.grammar.analysis import (
    Occurrence,
    analyze_grammar_cached,
    build_occurrence_graph_cached,
)
from repro.grammar.cfg import Grammar
from repro.grammar.regex import ast as rx
from repro.grammar.regex.glushkov import Glushkov, build_glushkov
from repro.grammar.symbols import END


class DetectEvent(NamedTuple):
    """A raw detection: ``occurrence`` matched ending at byte ``end - 1``.

    A named tuple so the bulk emitters — the compiled loop, the vector
    engine's generated programs, the native kernel (which leaves them
    untracked by the cyclic GC) — build them at plain-tuple cost.
    """

    occurrence: Occurrence
    end: int  # exclusive


@dataclass(frozen=True)
class ScanPlan:
    """Derived scan structure for one (grammar, wiring) pair.

    The plan is immutable and shared: every tagger built for the same
    grammar object and equivalent wiring options receives the same
    instance (and therefore the same unit ordering — the hardware's
    detect-port scan order, which fixes same-byte event order).
    """

    grammar: Grammar
    wiring: WiringOptions
    units: tuple[Occurrence, ...]
    starts: frozenset[Occurrence]
    accepting: frozenset[Occurrence]
    #: unit -> units it enables (loop-on-accept edges included).
    successors: dict[Occurrence, frozenset[Occurrence]]
    #: one position automaton per token, shared across contexts.
    automata: dict[str, Glushkov]
    delimiters: frozenset[int]
    #: per-token extra longest-match suppression bytes (keyword boundary).
    boundary: dict[str, frozenset[int]]
    longest_match: bool
    #: default (or-tree) encoder index per unit.
    index_of: dict[Occurrence, int]
    #: stable unit ordering (hardware detect-port scan order).
    unit_order: dict[Occurrence, int]

    def __reduce__(self):
        # Ship the compact inputs, not the derived structure: the
        # unpickling process re-derives through build_scan_plan's
        # memo, so plans stay shared (one instance per grammar/wiring)
        # on the far side of a process boundary too.
        return (build_scan_plan, (self.grammar, self.wiring))


#: The wiring fields a scan depends on, in the one order the memo keys,
#: artifact headers and content ids use.
_WIRING_FIELDS = (
    "context_duplication",
    "start_mode",
    "loop_on_accept",
    "error_recovery",
    "tokenizer.longest_match",
    "tokenizer.keyword_boundary",
)

#: Hashable identity of the wiring options a scan depends on.
_wiring_key = attrgetter(*_WIRING_FIELDS)


def build_scan_plan(grammar: Grammar, wiring: WiringOptions) -> ScanPlan:
    """Derive (or fetch the memoized) scan plan for a grammar."""
    return grammar.derived(
        ("plan", _wiring_key(wiring)), lambda: _derive_plan(grammar, wiring)
    )


def _derive_plan(grammar: Grammar, wiring: WiringOptions) -> ScanPlan:
    analysis = analyze_grammar_cached(grammar)
    graph = build_occurrence_graph_cached(grammar)

    if wiring.context_duplication:
        units: list[Occurrence] = list(graph.occurrences)
        edges = graph.edges
        starts = frozenset(graph.starts)
        accepting = frozenset(graph.accepting)
    else:
        representative: dict = {}
        for occurrence in graph.occurrences:
            representative.setdefault(occurrence.terminal, occurrence)
        units = list(representative.values())
        collapsed = graph.collapsed_edges()
        edges = {
            unit: frozenset(
                representative[t]
                for t in collapsed.get(unit.terminal, frozenset())
                if t in representative
            )
            for unit in units
        }
        starts = frozenset(representative[o.terminal] for o in graph.starts)
        accepting = frozenset(
            representative[t]
            for t in representative
            if END in analysis.follow[t]
        )

    unit_set = frozenset(units)
    successors: dict[Occurrence, frozenset[Occurrence]] = {
        unit: edges.get(unit, frozenset()) & unit_set for unit in units
    }
    if wiring.loop_on_accept:
        for unit in accepting:
            successors[unit] = successors[unit] | starts

    automata: dict[str, Glushkov] = {}
    for unit in units:
        name = unit.terminal.name
        if name not in automata:
            automata[name] = build_glushkov(grammar.lexspec.get(name).pattern)

    tmpl = wiring.tokenizer
    boundary: dict[str, frozenset[int]] = {}
    for unit in units:
        token = grammar.lexspec.get(unit.terminal.name)
        extra: frozenset[int] = frozenset()
        if tmpl.keyword_boundary and token.is_literal:
            text = token.fixed_text()
            if text and chr(text[-1]).isalnum():
                extra = rx.ALNUM.matched_bytes()
        boundary[unit.terminal.name] = extra

    return ScanPlan(
        grammar=grammar,
        wiring=wiring,
        units=tuple(units),
        starts=starts,
        accepting=accepting,
        successors=successors,
        automata=automata,
        delimiters=grammar.lexspec.delimiters.matched_bytes(),
        boundary=boundary,
        longest_match=tmpl.longest_match,
        index_of={unit: i + 1 for i, unit in enumerate(units)},
        unit_order={unit: i for i, unit in enumerate(units)},
    )
