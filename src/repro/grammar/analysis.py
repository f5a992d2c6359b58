"""Nullable / First / Follow analysis (the paper's Fig. 8), plus the
occurrence-level follow graph that realizes context duplication.

The paper computes Follow sets *for the terminal tokens themselves*
(Fig. 10) and wires each tokenizer's output to the enable inputs of the
tokenizers in its Follow set (Fig. 11). Because "the same token used in
two different contexts" is duplicated per context (§3.2), the hardware
actually operates on *occurrences* — (production, position) pairs — so
this module also derives the occurrence graph: which terminal
occurrence may follow which, which occurrences can start a sentence,
and which may end one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.grammar.cfg import Grammar, Production
from repro.grammar.symbols import END, NonTerminal, Symbol, Terminal


@dataclass
class GrammarAnalysis:
    """Results of the Fig. 8 fixpoint over a grammar."""

    grammar: Grammar
    nullable: dict[NonTerminal, bool]
    first: dict[Symbol, frozenset[Terminal]]
    follow: dict[Symbol, frozenset[Terminal]]

    def first_of_sequence(self, symbols: tuple[Symbol, ...]) -> frozenset[Terminal]:
        """FIRST of a sentential-form suffix, without the END marker."""
        result: set[Terminal] = set()
        for symbol in symbols:
            result |= self.first[symbol]
            if not self.sequence_nullable((symbol,)):
                break
        return frozenset(result)

    def sequence_nullable(self, symbols: tuple[Symbol, ...]) -> bool:
        """Whether an entire symbol sequence can derive epsilon."""
        return all(
            isinstance(symbol, NonTerminal) and self.nullable[symbol]
            for symbol in symbols
        )

    @property
    def start_terminals(self) -> frozenset[Terminal]:
        """The possible starting tokens: FIRST of the start symbol.

        "The First set of the first production contains all possible
        starting terminal tokens." (§3.3)
        """
        assert self.grammar.start is not None
        return self.first[self.grammar.start]

    def token_follow_table(self) -> dict[Terminal, frozenset[Terminal]]:
        """Follow set per terminal token — the paper's Fig. 10 table."""
        return {
            terminal: self.follow[terminal]
            for terminal in self.grammar.used_terminals()
        }

    def describe_follow(self) -> str:
        """Printable Fig. 10-style table (END rendered as ε)."""
        lines = ["token        follow set"]
        for terminal, follows in self.token_follow_table().items():
            names = sorted("ε" if t == END else t.name for t in follows)
            lines.append(f"{terminal.name:<12} {{{', '.join(names)}}}")
        return "\n".join(lines)


def analyze_grammar(grammar: Grammar) -> GrammarAnalysis:
    """Run the Fig. 8 algorithm to a fixpoint.

    The loop structure mirrors the figure: initialize FIRST[Z] = {Z}
    for every terminal, then repeat the three update rules for every
    production ``X -> Y1 … Yk`` until nothing changes. Follow sets are
    computed for *all* symbols, terminals included, as the paper's
    Fig. 10 requires. The END marker is seeded into FOLLOW(start).
    """
    grammar.validate()
    assert grammar.start is not None

    nullable: dict[NonTerminal, bool] = {nt: False for nt in grammar.nonterminals}
    first: dict[Symbol, set[Terminal]] = {}
    follow: dict[Symbol, set[Terminal]] = {}
    for terminal in grammar.terminals:
        first[terminal] = {terminal}
        follow[terminal] = set()
    for nonterminal in grammar.nonterminals:
        first[nonterminal] = set()
        follow[nonterminal] = set()
    follow[grammar.start].add(END)

    def seq_nullable(symbols: tuple[Symbol, ...]) -> bool:
        return all(
            isinstance(s, NonTerminal) and nullable[s] for s in symbols
        )

    changed = True
    while changed:
        changed = False
        for production in grammar.productions:
            lhs, rhs = production.lhs, production.rhs
            k = len(rhs)
            # "if all Yi are nullable (or if k = 0) then nullable[X] <- true"
            if not nullable[lhs] and seq_nullable(rhs):
                nullable[lhs] = True
                changed = True
            for i in range(k):
                yi = rhs[i]
                # "if Y1 … Yi-1 are all nullable (or if i = 1)
                #  then FIRST[X] <- FIRST[X] ∪ FIRST[Yi]"
                if seq_nullable(rhs[:i]):
                    if not first[yi] <= first[lhs]:
                        first[lhs] |= first[yi]
                        changed = True
                # "if Yi+1 … Yk are all nullable (or if i = k)
                #  then FOLLOW[Yi] <- FOLLOW[Yi] ∪ FOLLOW[X]"
                if seq_nullable(rhs[i + 1 :]):
                    if not follow[lhs] <= follow[yi]:
                        follow[yi] |= follow[lhs]
                        changed = True
                # "for each j from i+1 to k: if Yi+1 … Yj-1 are all
                #  nullable (or if i+1 = j)
                #  then FOLLOW[Yi] <- FOLLOW[Yi] ∪ FIRST[Yj]"
                for j in range(i + 1, k):
                    if seq_nullable(rhs[i + 1 : j]):
                        yj = rhs[j]
                        if not first[yj] <= follow[yi]:
                            follow[yi] |= first[yj]
                            changed = True

    return GrammarAnalysis(
        grammar=grammar,
        nullable=nullable,
        first={s: frozenset(v) for s, v in first.items()},
        follow={s: frozenset(v) for s, v in follow.items()},
    )


# A :class:`Grammar` is mutable while it is being assembled but
# effectively frozen once analyzed; the memoized entry points keep
# their results in the grammar's own memo (:meth:`Grammar.derived`),
# so they live and die with it.
def analyze_grammar_cached(grammar: Grammar) -> GrammarAnalysis:
    """Memoized :func:`analyze_grammar` (kept on the grammar)."""
    return grammar.derived("analysis", lambda: analyze_grammar(grammar))


def build_occurrence_graph_cached(grammar: Grammar) -> "OccurrenceGraph":
    """Memoized :func:`build_occurrence_graph` over the cached analysis."""
    return grammar.derived(
        "graph",
        lambda: build_occurrence_graph(grammar, analyze_grammar_cached(grammar)),
    )


# ----------------------------------------------------------------------
# occurrence-level analysis (context duplication, §3.2 last paragraph)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Occurrence:
    """One appearance of a terminal in a production body.

    The pair (production index, position) *is* the paper's duplicated
    per-context token: "the meaning of each token can be determined by
    monitoring where it is being processed" (abstract).
    """

    production: int
    position: int
    terminal: Terminal

    def context_name(self) -> str:
        return f"p{self.production}.{self.position}"

    def __str__(self) -> str:
        return f"{self.terminal.name}@{self.context_name()}"


@dataclass
class OccurrenceGraph:
    """Follow relation between terminal occurrences.

    * ``starts`` — occurrences that may begin a sentence;
    * ``edges[o]`` — occurrences that may immediately follow ``o``
      (with only delimiters between them);
    * ``accepting`` — occurrences that may end a sentence.

    Collapsing every occurrence of the same terminal into one node
    yields exactly the terminal-level Follow wiring of Fig. 11 (this is
    asserted by the test suite), so the graph is a conservative
    refinement: same architecture, finer tags.
    """

    grammar: Grammar
    occurrences: list[Occurrence]
    starts: frozenset[Occurrence]
    edges: dict[Occurrence, frozenset[Occurrence]]
    accepting: frozenset[Occurrence]

    def contexts_per_terminal(self) -> dict[Terminal, int]:
        """How many hardware copies each token needs (ablation metric)."""
        counts: dict[Terminal, int] = {}
        for occurrence in self.occurrences:
            counts[occurrence.terminal] = counts.get(occurrence.terminal, 0) + 1
        return counts

    def collapsed_edges(self) -> dict[Terminal, frozenset[Terminal]]:
        """Terminal-level view of the graph (must equal Fig. 10/11)."""
        collapsed: dict[Terminal, set[Terminal]] = {}
        for occurrence, nexts in self.edges.items():
            bucket = collapsed.setdefault(occurrence.terminal, set())
            bucket.update(n.terminal for n in nexts)
        return {t: frozenset(s) for t, s in collapsed.items()}


def build_occurrence_graph(
    grammar: Grammar, analysis: GrammarAnalysis | None = None
) -> OccurrenceGraph:
    """Derive the occurrence-level follow graph for a grammar.

    The computation parallels Fig. 8 but over occurrences:

    * ``START_OCC(N)`` — occurrences that can begin a derivation of N;
    * ``FOLLOW_OCC(N)`` — occurrences that can appear right after N;
    * ``CAN_END(N)`` — whether a derivation of N can end the sentence.
    """
    if analysis is None:
        analysis = analyze_grammar(grammar)
    assert grammar.start is not None

    occurrences: list[Occurrence] = []
    occ_at: dict[tuple[int, int], Occurrence] = {}
    for production in grammar.productions:
        for position, symbol in enumerate(production.rhs):
            if isinstance(symbol, Terminal):
                occurrence = Occurrence(production.index, position, symbol)
                occurrences.append(occurrence)
                occ_at[(production.index, position)] = occurrence

    nullable = analysis.nullable

    def start_occurrences(nt: NonTerminal, seen: frozenset[NonTerminal] = frozenset()) -> set[Occurrence]:
        if nt in seen:
            return set()
        seen = seen | {nt}
        result: set[Occurrence] = set()
        for production in grammar.productions_for(nt):
            for position, symbol in enumerate(production.rhs):
                if isinstance(symbol, Terminal):
                    result.add(occ_at[(production.index, position)])
                    break
                result |= start_occurrences(symbol, seen)
                if not nullable[symbol]:
                    break
        return result

    start_cache: dict[NonTerminal, frozenset[Occurrence]] = {
        nt: frozenset(start_occurrences(nt)) for nt in grammar.nonterminals
    }

    # Fixpoint for FOLLOW_OCC(N) and CAN_END(N).
    follow_occ: dict[NonTerminal, set[Occurrence]] = {
        nt: set() for nt in grammar.nonterminals
    }
    can_end: dict[NonTerminal, bool] = {nt: False for nt in grammar.nonterminals}
    can_end[grammar.start] = True

    def suffix_contribution(
        production: Production, position: int
    ) -> tuple[set[Occurrence], bool]:
        """Occurrences startable after ``position`` in ``production``,
        and whether the remainder can reach the end of the production
        (thereby inheriting FOLLOW_OCC of the LHS)."""
        gained: set[Occurrence] = set()
        for j in range(position + 1, len(production.rhs)):
            symbol = production.rhs[j]
            if isinstance(symbol, Terminal):
                gained.add(occ_at[(production.index, j)])
                return gained, False
            gained |= start_cache[symbol]
            if not nullable[symbol]:
                return gained, False
        return gained, True

    changed = True
    while changed:
        changed = False
        for production in grammar.productions:
            for position, symbol in enumerate(production.rhs):
                if not isinstance(symbol, NonTerminal):
                    continue
                gained, reaches_end = suffix_contribution(production, position)
                if reaches_end:
                    gained |= follow_occ[production.lhs]
                    if can_end[production.lhs] and not can_end[symbol]:
                        can_end[symbol] = True
                        changed = True
                if not gained <= follow_occ[symbol]:
                    follow_occ[symbol] |= gained
                    changed = True

    # Per-occurrence edges and accepting set.
    edges: dict[Occurrence, frozenset[Occurrence]] = {}
    accepting: set[Occurrence] = set()
    for occurrence in occurrences:
        production = grammar.productions[occurrence.production]
        gained, reaches_end = suffix_contribution(production, occurrence.position)
        if reaches_end:
            gained |= follow_occ[production.lhs]
            if can_end[production.lhs]:
                accepting.add(occurrence)
        edges[occurrence] = frozenset(gained)

    return OccurrenceGraph(
        grammar=grammar,
        occurrences=occurrences,
        starts=start_cache[grammar.start],
        edges=edges,
        accepting=frozenset(accepting),
    )
