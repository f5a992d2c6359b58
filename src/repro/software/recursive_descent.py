"""Recursive-descent parser (software reference, §3.1).

"Traditional software implementations of parsers rely on a built-in
context switch function in language to handle recursive executions" —
this parser is exactly that: one mutually recursive procedure per
non-terminal, predictive via FIRST/FOLLOW with one token of lookahead,
the call stack playing the role the paper's hardware deliberately
drops (§3.1, push-down → finite-state collapse).

It emits the same (token, occurrence) tags as the LL(1) parser and the
hardware tagger, so all three are cross-checked in the tests.
"""

from __future__ import annotations

from repro.core.tokens import TaggedToken
from repro.errors import GrammarError, ParseError
from repro.grammar.analysis import Occurrence, analyze_grammar_cached
from repro.grammar.cfg import Grammar, Production
from repro.grammar.symbols import END, NonTerminal, Terminal
from repro.software.lexer import ContextSensitiveLexer, LexedToken


class RecursiveDescentParser:
    """Predictive recursive-descent parser over a grammar.

    Example
    -------
    >>> from repro.grammar.examples import if_then_else
    >>> parser = RecursiveDescentParser(if_then_else())
    >>> [t.token for t in parser.parse(b"go")]
    ['go']
    """

    def __init__(self, grammar: Grammar) -> None:
        self.grammar = grammar
        self.analysis = analyze_grammar_cached(grammar)
        self.lexer = ContextSensitiveLexer(grammar.lexspec)
        # Selection sets per production (LL(1) condition checked here
        # too — recursive descent needs disjoint alternatives).
        self.selection: dict[int, frozenset[Terminal]] = {}
        for production in grammar.productions:
            chosen = set(self.analysis.first_of_sequence(production.rhs))
            if self.analysis.sequence_nullable(production.rhs):
                chosen |= set(self.analysis.follow[production.lhs])
            self.selection[production.index] = frozenset(chosen)
        for nonterminal in grammar.nonterminals:
            productions = grammar.productions_for(nonterminal)
            seen: set[Terminal] = set()
            for production in productions:
                overlap = seen & self.selection[production.index]
                if overlap:
                    raise GrammarError(
                        f"alternatives of {nonterminal} overlap on "
                        f"{sorted(t.name for t in overlap)}; not suitable "
                        "for predictive recursive descent"
                    )
                seen |= self.selection[production.index]

    # ------------------------------------------------------------------
    def parse(self, data: bytes) -> list[TaggedToken]:
        """Parse one complete sentence, returning tagged tokens."""
        assert self.grammar.start is not None
        state = _State(self, data)
        state.expand(self.grammar.start)
        tail = self.lexer.skip_delimiters(data, state.position)
        if state.lookahead is not None:
            raise ParseError(
                f"trailing token {state.lookahead.name!r}",
                position=state.lookahead.start,
            )
        if tail < len(data):
            raise ParseError("trailing input", position=tail)
        return state.tokens


class _State:
    """Mutable cursor shared by the recursive procedures."""

    def __init__(self, parser: RecursiveDescentParser, data: bytes) -> None:
        self.parser = parser
        self.data = data
        self.position = 0
        self.lookahead: LexedToken | None = None
        self.lookahead_valid = False
        self.tokens: list[TaggedToken] = []

    # ------------------------------------------------------------------
    def peek(self, allowed: set[str]) -> LexedToken | None:
        if not self.lookahead_valid:
            self.lookahead, self.position = self.parser.lexer.next_token(
                self.data, self.position, allowed
            )
            self.lookahead_valid = True
        return self.lookahead

    def consume(self, occurrence: Occurrence) -> None:
        token = self.peek({occurrence.terminal.name})
        if token is None or token.name != occurrence.terminal.name:
            raise ParseError(
                f"expected {occurrence.terminal.name!r}",
                position=self.position,
            )
        self.tokens.append(
            TaggedToken.of(occurrence, token.lexeme, token.start, token.end)
        )
        self.lookahead = None
        self.lookahead_valid = False

    # ------------------------------------------------------------------
    def expand(self, nonterminal: NonTerminal) -> None:
        """The recursive procedure for one non-terminal."""
        parser = self.parser
        productions = parser.grammar.productions_for(nonterminal)
        allowed = {
            t.name
            for production in productions
            for t in parser.selection[production.index]
            if t != END
        }
        try:
            token = self.peek(allowed)
        except ParseError:
            token = None
        key = Terminal(token.name) if token is not None else END
        chosen: Production | None = None
        for production in productions:
            if key in parser.selection[production.index]:
                chosen = production
                break
        if chosen is None and token is None:
            for production in productions:
                if END in parser.selection[production.index]:
                    chosen = production
                    break
        if chosen is None:
            raise ParseError(
                f"unexpected {key.name!r} while expanding {nonterminal}",
                position=self.position,
            )
        for position, symbol in enumerate(chosen.rhs):
            if isinstance(symbol, Terminal):
                self.consume(Occurrence(chosen.index, position, symbol))
            else:
                self.expand(symbol)
