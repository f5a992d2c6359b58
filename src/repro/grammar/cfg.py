"""Context-free grammar object model.

A :class:`Grammar` couples a production list with the token list
(:class:`~repro.grammar.lexspec.LexSpec`) exactly as the paper's code
generator consumes them (Fig. 14 shows the combined Yacc-style file).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable

from repro.errors import GrammarError
from repro.grammar.lexspec import LexSpec
from repro.grammar.symbols import NonTerminal, Symbol, Terminal


@dataclass(frozen=True)
class Production:
    """One production ``lhs -> rhs``; an empty ``rhs`` is epsilon."""

    index: int
    lhs: NonTerminal
    rhs: tuple[Symbol, ...]

    def __str__(self) -> str:
        right = " ".join(str(s) for s in self.rhs) if self.rhs else "ε"
        return f"{self.lhs} → {right}"


class Grammar:
    """A context-free grammar with an attached lexical specification.

    Productions are added with :meth:`add`; symbols on the right-hand
    side are :class:`Terminal`/:class:`NonTerminal` instances. Every
    terminal must exist in the lex spec (quoted literals are registered
    automatically by the Yacc front-end).

    Example
    -------
    >>> from repro.grammar.lexspec import LexSpec
    >>> lex = LexSpec()
    >>> _ = lex.define_literal("go")
    >>> g = Grammar("toy", lex)
    >>> E = NonTerminal("E")
    >>> _ = g.add(E, [Terminal("go")])
    >>> g.start = E
    >>> g.validate()
    """

    def __init__(self, name: str, lexspec: LexSpec | None = None) -> None:
        self.name = name
        self.lexspec = lexspec if lexspec is not None else LexSpec()
        self.productions: list[Production] = []
        self.start: NonTerminal | None = None
        self._by_lhs: dict[NonTerminal, list[Production]] = {}
        self._derived: dict[Hashable, Any] = {}

    # ------------------------------------------------------------------
    def derived(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """``build()``, run once per ``key`` and kept exactly as long as
        this grammar lives: the one memo for everything compiled from
        it (analysis, scan plans, tables, scan IR, kernel tables; keys
        in DESIGN.md §7).  The grammar must not change after the first
        call, the assumption every generated circuit already makes."""
        memo = self._derived
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def __getstate__(self) -> dict:
        # Pickles and copies carry the grammar, never what was compiled
        # from it: the far side rebuilds through its own memo.
        state = self.__dict__.copy()
        del state["_derived"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._derived = {}

    # ------------------------------------------------------------------
    def add(self, lhs: NonTerminal, rhs: list[Symbol] | tuple[Symbol, ...]) -> Production:
        """Append a production; the first LHS becomes the start symbol."""
        production = Production(len(self.productions), lhs, tuple(rhs))
        self.productions.append(production)
        self._by_lhs.setdefault(lhs, []).append(production)
        if self.start is None:
            self.start = lhs
        return production

    def productions_for(self, lhs: NonTerminal) -> list[Production]:
        return self._by_lhs.get(lhs, [])

    # ------------------------------------------------------------------
    @property
    def nonterminals(self) -> list[NonTerminal]:
        """Non-terminals in order of first definition."""
        seen: dict[NonTerminal, None] = {}
        for production in self.productions:
            seen.setdefault(production.lhs, None)
        return list(seen)

    @property
    def terminals(self) -> list[Terminal]:
        """Terminals in token-list order (this fixes encoder indices)."""
        return [token.terminal for token in self.lexspec]

    def used_terminals(self) -> list[Terminal]:
        """Terminals that actually appear in some production."""
        seen: dict[Terminal, None] = {}
        for production in self.productions:
            for symbol in production.rhs:
                if isinstance(symbol, Terminal):
                    seen.setdefault(symbol, None)
        return list(seen)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`GrammarError` on structural problems."""
        if self.start is None or not self.productions:
            raise GrammarError(f"grammar {self.name!r} has no productions")
        defined = set(self._by_lhs)
        if self.start not in defined:
            raise GrammarError(f"start symbol {self.start} has no productions")
        for production in self.productions:
            for symbol in production.rhs:
                if isinstance(symbol, NonTerminal):
                    if symbol not in defined:
                        raise GrammarError(
                            f"non-terminal {symbol} used in {production} "
                            "but never defined"
                        )
                elif isinstance(symbol, Terminal):
                    if symbol.name not in self.lexspec:
                        raise GrammarError(
                            f"terminal {symbol} of {production} missing "
                            "from the token list"
                        )
                else:
                    raise GrammarError(f"bad symbol {symbol!r} in {production}")
        self._check_reachable()

    def _check_reachable(self) -> None:
        assert self.start is not None
        reached: set[NonTerminal] = set()
        stack = [self.start]
        while stack:
            current = stack.pop()
            if current in reached:
                continue
            reached.add(current)
            for production in self.productions_for(current):
                for symbol in production.rhs:
                    if isinstance(symbol, NonTerminal) and symbol not in reached:
                        stack.append(symbol)
        unreachable = [nt for nt in self.nonterminals if nt not in reached]
        if unreachable:
            raise GrammarError(
                "unreachable non-terminals: "
                + ", ".join(str(nt) for nt in unreachable)
            )

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Printable listing in the style of the paper's Fig. 1/Fig. 9."""
        lines = [f"grammar {self.name} (start: {self.start})"]
        for production in self.productions:
            lines.append(f"  {production.index + 1:>2} {production}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Grammar({self.name!r}, {len(self.productions)} productions, "
            f"{len(self.lexspec)} tokens)"
        )
