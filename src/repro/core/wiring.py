"""Syntactic control flow: Follow-set wiring of tokenizers (Fig. 11).

"We forward the output of each token to the inputs of the tokens
listed in its Follow set. When there is more than one connection to
the input of the tokenizer, an OR gate is used to combine the signals
into a single bit input." (§3.3)

The wiring is two-pass: every tokenizer is built against a placeholder
enable net, then each placeholder is driven with the OR of its
predecessors' detect outputs (plus the start condition for the start
tokens). With context duplication on (the default, §3.2), tokenizers
are instantiated per *occurrence*; the ablation collapses them to one
per terminal, reproducing the coarser Fig. 11 wiring.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.decoder import DecoderBank
from repro.core.options import WiringOptions
from repro.core.tokenizer import TokenizerInstance, build_tokenizer
from repro.errors import GenerationError
from repro.grammar.analysis import (
    GrammarAnalysis,
    Occurrence,
    OccurrenceGraph,
    analyze_grammar,
    build_occurrence_graph,
)
from repro.grammar.cfg import Grammar
from repro.grammar.regex.glushkov import Glushkov, build_glushkov
from repro.grammar.symbols import END, Terminal
from repro.rtl.netlist import Net, Netlist


@dataclass
class WiredScanner:
    """All tokenizers of a tagger plus their wiring metadata."""

    grammar: Grammar
    analysis: GrammarAnalysis
    graph: OccurrenceGraph
    instances: dict[Occurrence, TokenizerInstance]
    #: Occurrences in deterministic output order (encoder input order).
    order: list[Occurrence]
    options: WiringOptions
    #: Registered "parse died" flag (§5.2), None unless error_recovery.
    lost: Net | None = None


def build_scanner(
    netlist: Netlist,
    decoders: DecoderBank,
    grammar: Grammar,
    options: WiringOptions | None = None,
) -> WiredScanner:
    """Instantiate and wire every tokenizer of ``grammar``."""
    options = options or WiringOptions()
    if options.error_recovery and not options.tokenizer.track_liveness:
        from dataclasses import replace as _replace

        options = _replace(
            options, tokenizer=_replace(options.tokenizer, track_liveness=True)
        )
    analysis = analyze_grammar(grammar)
    graph = build_occurrence_graph(grammar, analysis)
    if not graph.occurrences:
        raise GenerationError("grammar has no terminal occurrences")

    if options.context_duplication:
        units, edges, starts, accepting = _occurrence_units(graph)
    else:
        units, edges, starts, accepting = _collapsed_units(graph, analysis)

    # Shared Glushkov automata per token pattern (identical contexts
    # share the construction, not the hardware).
    automata: dict[str, Glushkov] = {}

    def automaton_for(terminal: Terminal) -> Glushkov:
        cached = automata.get(terminal.name)
        if cached is None:
            cached = build_glushkov(grammar.lexspec.get(terminal.name).pattern)
            automata[terminal.name] = cached
        return cached

    # Pass 1: tokenizers against placeholder enables.
    instances: dict[Occurrence, TokenizerInstance] = {}
    enables: dict[Occurrence, Net] = {}
    always_on = options.start_mode == "always"
    for unit in units:
        name = f"tok_{_sanitize(unit.terminal.name)}_{unit.context_name()}"
        if always_on and unit in starts:
            enable: Net = netlist.const(1)
        else:
            enable = netlist.placeholder(f"{name}_en")
            enables[unit] = enable
        instances[unit] = build_tokenizer(
            netlist,
            decoders,
            grammar.lexspec.get(unit.terminal.name),
            enable,
            name,
            options=options.tokenizer,
            glushkov=automaton_for(unit.terminal),
        )

    # §5.2 error recovery: a registered flag that rises when no
    # tokenizer holds any state during valid streaming; it feeds back
    # into the start enables so parsing resumes past the error.
    lost: Net | None = None
    if options.error_recovery:
        liveness_nets = [
            inst.liveness
            for inst in instances.values()
            if inst.liveness is not None
        ]
        live = netlist.or_tree(liveness_nets, name="parser_live")
        lost = netlist.reg(
            netlist.and_(
                decoders.valid_cur, netlist.not_(live), name="parser_lost_d"
            ),
            name="parser_lost",
        )

    # Pass 2: drive the enables with predecessor detects + start logic.
    predecessors: dict[Occurrence, list[Occurrence]] = {u: [] for u in units}
    for source, targets in edges.items():
        for target in targets:
            predecessors[target].append(source)
    if options.loop_on_accept:
        for source in accepting:
            for target in starts:
                if source not in predecessors[target]:
                    predecessors[target].append(source)

    for unit, enable in enables.items():
        sources: list[Net] = [
            instances[pred].detect for pred in predecessors[unit]
        ]
        if unit in starts:
            sources.append(decoders.start_pulse)
            if lost is not None:
                sources.append(lost)
        if not sources:
            # Token unreachable from the start symbol through the
            # follow graph — permanently disabled.
            netlist.drive_const(enable, 0)
            continue
        netlist.drive_or(enable, _dedupe(sources))

    return WiredScanner(
        grammar=grammar,
        analysis=analysis,
        graph=graph,
        instances=instances,
        order=list(units),
        options=options,
        lost=lost,
    )


def _occurrence_units(
    graph: OccurrenceGraph,
) -> tuple[
    list[Occurrence],
    dict[Occurrence, frozenset[Occurrence]],
    frozenset[Occurrence],
    frozenset[Occurrence],
]:
    return list(graph.occurrences), graph.edges, graph.starts, graph.accepting


def _collapsed_units(graph: OccurrenceGraph, analysis: GrammarAnalysis):
    """One unit per terminal: the ablation without context duplication.

    The representative occurrence of each terminal is its first one;
    edges are the terminal-level Follow table of Fig. 10/11.
    """
    representative: dict[Terminal, Occurrence] = {}
    for occurrence in graph.occurrences:
        representative.setdefault(occurrence.terminal, occurrence)
    units = list(representative.values())

    collapsed = graph.collapsed_edges()
    edges: dict[Occurrence, frozenset[Occurrence]] = {}
    for unit in units:
        followers = collapsed.get(unit.terminal, frozenset())
        edges[unit] = frozenset(
            representative[t] for t in followers if t in representative
        )
    starts = frozenset(
        representative[o.terminal] for o in graph.starts
    )
    accepting = frozenset(
        representative[t]
        for t in representative
        if END in analysis.follow[t]
    )
    return units, edges, starts, accepting


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


def _dedupe(nets: list[Net]) -> list[Net]:
    seen: set[int] = set()
    unique: list[Net] = []
    for net in nets:
        if net.uid not in seen:
            seen.add(net.uid)
            unique.append(net)
    return unique


# ----------------------------------------------------------------------
# conflict estimation for the equation-5 priority encoder
# ----------------------------------------------------------------------
def estimate_conflict_groups(
    scanner: WiredScanner,
) -> list[list[int]]:
    """Heuristic sets of encoder inputs that may assert simultaneously.

    "One solution to the conflict is to divide the set into multiple
    sets; where each subset contains all of the tokens that can
    possibly be asserted at any one time." (§3.4)

    Two units may collide when (a) they can be enabled from a common
    predecessor (or are both start tokens), and (b) the byte sets of
    their final pattern positions intersect, so the same input byte can
    complete both. This over-approximates simultaneity, which is safe:
    a group may be split further but must never miss a real conflict.
    Groups are ordered lowest priority first, with more specific
    patterns (smaller alphabets) given higher priority.
    """
    units = scanner.order

    enabler_sets: dict[Occurrence, frozenset] = {}
    edges = (
        scanner.graph.edges
        if scanner.options.context_duplication
        else None
    )
    predecessor_map: dict[Occurrence, set] = {u: set() for u in units}
    if edges is not None:
        for source, targets in edges.items():
            for target in targets:
                if target in predecessor_map:
                    predecessor_map[target].add(source)
    for unit in units:
        enablers = frozenset(predecessor_map[unit]) | (
            frozenset({"<start>"}) if unit in scanner.graph.starts else frozenset()
        )
        enabler_sets[unit] = enablers

    def last_bytes(unit: Occurrence) -> frozenset[int]:
        auto = scanner.instances[unit].glushkov
        result: set[int] = set()
        for p in auto.last:
            result |= auto.position_bytes[p]
        return frozenset(result)

    # Union-find over colliding pairs.
    parent = list(range(len(units)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    for i, a in enumerate(units):
        for j in range(i + 1, len(units)):
            b = units[j]
            if not enabler_sets[a] & enabler_sets[b]:
                continue
            if last_bytes(a) & last_bytes(b):
                union(i, j)

    groups: dict[int, list[int]] = {}
    for i in range(len(units)):
        groups.setdefault(find(i), []).append(i)

    def specificity(index: int) -> int:
        from repro.grammar.regex.ast import alphabet

        return len(alphabet(scanner.instances[units[index]].glushkov.pattern))

    result = []
    for members in groups.values():
        if len(members) < 2:
            continue
        # Lowest priority first: broader patterns (larger alphabets)
        # are less specific, so they get lower priority.
        members.sort(key=specificity, reverse=True)
        result.append(members)
    return result
