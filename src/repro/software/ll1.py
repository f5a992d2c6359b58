"""Table-driven LL(1) predictive parser (software reference).

This is the "traditional" parser the paper contrasts its hardware
against (§3.1): a parse table indexed by (non-terminal, lookahead
token), a stack for recursion, and sequential processing — one token
at a time. It doubles as the *oracle* for the tagger: on conforming
input, the (token, occurrence-context) pairs it emits must equal the
hardware tagger's output, which the integration tests assert.

The parser drives a :class:`~repro.software.lexer.ContextSensitiveLexer`
with the FIRST sets of its current expectation, so context-dependent
tokens (MONTH vs DAY vs HOUR, which share one pattern) resolve exactly
as the hardware's Follow-set gating resolves them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.tokens import TaggedToken
from repro.errors import GrammarError, ParseError
from repro.grammar.analysis import GrammarAnalysis, Occurrence, analyze_grammar_cached
from repro.grammar.cfg import Grammar, Production
from repro.grammar.symbols import END, NonTerminal, Symbol, Terminal
from repro.software.lexer import ContextSensitiveLexer, LexedToken


@dataclass
class ParseNode:
    """A parse-tree node ("the parse tree reveals contextual meaning of
    the words in input program", §3.1)."""

    symbol: Symbol
    production: Production | None = None
    token: TaggedToken | None = None
    children: list["ParseNode"] = field(default_factory=list)

    def leaves(self) -> list[TaggedToken]:
        if self.token is not None:
            return [self.token]
        result: list[TaggedToken] = []
        for child in self.children:
            result.extend(child.leaves())
        return result

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        if self.token is not None:
            return f"{pad}{self.token}"
        lines = [f"{pad}{self.symbol}"]
        lines.extend(child.render(indent + 1) for child in self.children)
        return "\n".join(lines)


@dataclass
class ParseResult:
    """Outcome of a successful parse."""

    tokens: list[TaggedToken]
    tree: ParseNode


class LL1Parser:
    """Predictive parser built from a grammar's LL(1) table.

    Raises :class:`GrammarError` at construction when the grammar is
    not LL(1) (table conflict), and :class:`ParseError` at parse time
    when the input does not conform.

    Example
    -------
    >>> from repro.grammar.examples import if_then_else
    >>> parser = LL1Parser(if_then_else())
    >>> [t.token for t in parser.parse(b"if true then go else stop").tokens]
    ['if', 'true', 'then', 'go', 'else', 'stop']
    """

    def __init__(self, grammar: Grammar) -> None:
        self.grammar = grammar
        self.analysis: GrammarAnalysis = analyze_grammar_cached(grammar)
        self.lexer = ContextSensitiveLexer(grammar.lexspec)
        self.table: dict[NonTerminal, dict[Terminal, Production]] = {}
        self._build_table()

    # ------------------------------------------------------------------
    def _build_table(self) -> None:
        analysis = self.analysis
        for production in self.grammar.productions:
            row = self.table.setdefault(production.lhs, {})
            selection = set(analysis.first_of_sequence(production.rhs))
            if analysis.sequence_nullable(production.rhs):
                selection |= set(analysis.follow[production.lhs])
            for terminal in selection:
                existing = row.get(terminal)
                if existing is not None and existing is not production:
                    raise GrammarError(
                        f"grammar {self.grammar.name!r} is not LL(1): "
                        f"conflict on ({production.lhs}, {terminal}) "
                        f"between {existing} and {production}"
                    )
                row[terminal] = production

    # ------------------------------------------------------------------
    def parse(self, data: bytes) -> ParseResult:
        """Parse one complete sentence; return tokens and parse tree.

        Raises :class:`ParseError` when the sentence is malformed or
        when anything but delimiters trails it.
        """
        result, position = self._parse_one(data, 0, strict=True)
        tail = self.lexer.skip_delimiters(data, position)
        if tail < len(data):
            raise ParseError(
                "trailing input after complete sentence", position=tail
            )
        return result

    def parse_stream(self, data: bytes) -> list[ParseResult]:
        """Parse a stream of back-to-back sentences (router workload)."""
        results: list[ParseResult] = []
        position = 0
        while self.lexer.skip_delimiters(data, position) < len(data):
            start = self.lexer.skip_delimiters(data, position)
            result, position = self._parse_one(data, start, strict=False)
            results.append(result)
        return results

    def _parse_one(
        self, data: bytes, position: int, strict: bool
    ) -> tuple[ParseResult, int]:
        """Parse a single sentence starting at ``position``.

        With ``strict`` a lookahead failure propagates immediately; in
        stream mode an unlexable lookahead is treated as end-of-sentence
        (it belongs to the next message) and epsilon rules absorb it.
        """
        assert self.grammar.start is not None
        root = ParseNode(self.grammar.start)
        stack: list[tuple[Symbol, Occurrence | None, ParseNode]] = [
            (self.grammar.start, None, root)
        ]
        tokens: list[TaggedToken] = []
        lookahead: LexedToken | None = None
        lookahead_valid = False

        while stack:
            symbol, occurrence, node = stack.pop()
            if isinstance(symbol, Terminal):
                if not lookahead_valid:
                    lookahead, position = self.lexer.next_token(
                        data, position, {symbol.name}
                    )
                    lookahead_valid = True
                if lookahead is None or lookahead.name != symbol.name:
                    raise ParseError(
                        f"expected {symbol.name!r}", position=position
                    )
                assert occurrence is not None
                tagged = TaggedToken.of(
                    occurrence, lookahead.lexeme, lookahead.start, lookahead.end
                )
                tokens.append(tagged)
                node.token = tagged
                lookahead = None
                lookahead_valid = False
                continue
            row = self.table[symbol]
            if not lookahead_valid:
                allowed = {t.name for t in row if t != END}
                try:
                    lookahead, position = self.lexer.next_token(
                        data, position, allowed
                    )
                except ParseError:
                    if strict:
                        raise
                    lookahead = None
                lookahead_valid = True
            key = Terminal(lookahead.name) if lookahead is not None else END
            production = row.get(key) or (row.get(END) if lookahead is None else None)
            if production is None:
                # The lookahead belongs to the *next* sentence; take the
                # epsilon expansion if one exists.
                production = row.get(END)
            if production is None:
                raise ParseError(
                    f"unexpected {key.name!r} while expanding {symbol}",
                    position=position,
                )
            node.production = production
            children = [ParseNode(s) for s in production.rhs]
            node.children = children
            for child_position in range(len(production.rhs) - 1, -1, -1):
                child_symbol = production.rhs[child_position]
                child_occurrence = (
                    Occurrence(production.index, child_position, child_symbol)
                    if isinstance(child_symbol, Terminal)
                    else None
                )
                stack.append(
                    (child_symbol, child_occurrence, children[child_position])
                )
        if lookahead_valid and lookahead is not None:
            position = lookahead.start
        return ParseResult(tokens=tokens, tree=root), position
