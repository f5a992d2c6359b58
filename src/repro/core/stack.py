"""Stack-augmented tagger: the paper's §5.2 extension, realized.

"Additionally, a stack can be added to the architecture to give the
hardware parser all the power of a software parser."

The stack-less tagger collapses the push-down automaton into a finite
automaton (Fig. 2) and therefore accepts a *superset* of the language
— ``((0)`` streams through the Fig. 1 grammar's tagger. This module
restores the recursive state: a recursive-transition-network (RTN)
machine over the grammar whose stack frames are *continuations*
(production, position of the non-terminal being expanded). Matching is
still tokenizer-style — per-occurrence Glushkov longest match with
delimiter skipping — so the output is the same tagged-token stream,
now with exact nesting:

* unbalanced input is rejected (:class:`~repro.errors.ParseError`);
* a token's context tag can include its recursion depth.

Nondeterministic grammars fork parallel threads (each with its own
stack), mirroring how the paper's parallel engines "can be executed in
parallel" (§3.3); thread count is capped to keep the machine honest.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.options import WiringOptions
from repro.core.scanplan import build_scan_plan
from repro.core.tokens import TaggedToken
from repro.errors import GrammarError, ParseError
from repro.grammar.analysis import Occurrence, analyze_grammar_cached
from repro.grammar.cfg import Grammar
from repro.grammar.regex.glushkov import Glushkov
from repro.grammar.symbols import NonTerminal, Terminal

#: A stack frame: (production index, position of the non-terminal being
#: expanded). Popping resumes that production right after the position.
Frame = tuple[int, int]
Stack = tuple[Frame, ...]

#: Sentinel expectation meaning "a complete sentence just ended here".
_ACCEPT = None


@dataclass(frozen=True)
class StackedToken:
    """A tagged token plus the recursion depth at which it matched."""

    token: TaggedToken
    depth: int

    def __str__(self) -> str:
        return f"{self.token} depth={self.depth}"


@dataclass
class _Thread:
    position: int
    stack: Stack
    tokens: tuple[StackedToken, ...] = ()
    sentences: int = 0


class StackTagger:
    """RTN/PDA tagger with exact recursive state.

    Example
    -------
    >>> from repro.grammar.examples import balanced_parens
    >>> tagger = StackTagger(balanced_parens())
    >>> tagger.accepts(b"((0))"), tagger.accepts(b"((0)")
    (True, False)
    """

    def __init__(
        self,
        grammar: Grammar,
        max_depth: int = 64,
        max_threads: int = 64,
        stream: bool = False,
    ) -> None:
        grammar.validate()
        self.grammar = grammar
        self.analysis = analyze_grammar_cached(grammar)
        self.max_depth = max_depth
        self.max_threads = max_threads
        #: Accept a stream of back-to-back sentences instead of one.
        self.stream = stream
        #: One position automaton per token, the scan plan's.
        self.automata: dict[str, Glushkov] = build_scan_plan(
            grammar, WiringOptions()
        ).automata
        self.delimiters = grammar.lexspec.delimiters.matched_bytes()

    # ------------------------------------------------------------------
    # epsilon-closure: expected next occurrences given a resume point
    # ------------------------------------------------------------------
    def _expectations(
        self, resume: tuple[int, int] | None, stack: Stack
    ) -> list[tuple[Occurrence | None, Stack]]:
        """Occurrences that may match next, each with its new stack.

        ``resume = (production, position)`` means "continue scanning
        that production *after* ``position``"; ``None`` means "begin a
        sentence". An entry with occurrence ``None`` signals that a
        complete sentence may end at this point (stack exhausted).
        """
        results: list[tuple[Occurrence | None, Stack]] = []
        seen: set[tuple[int, int, Stack]] = set()

        def scan(production_index: int, after: int, stack: Stack) -> None:
            key = (production_index, after, stack)
            if key in seen:
                return
            seen.add(key)
            production = self.grammar.productions[production_index]
            for j in range(after, len(production.rhs)):
                symbol = production.rhs[j]
                if isinstance(symbol, Terminal):
                    results.append(
                        (Occurrence(production_index, j, symbol), stack)
                    )
                    return
                enter(symbol, stack + ((production_index, j),))
                if not self.analysis.nullable[symbol]:
                    return
                # nullable non-terminal: also continue past it
            # Production complete: return to the caller frame.
            if stack:
                (caller, position) = stack[-1]
                scan(caller, position + 1, stack[:-1])
            else:
                results.append((_ACCEPT, ()))

        def enter(nonterminal: NonTerminal, stack: Stack) -> None:
            if len(stack) > self.max_depth:
                raise GrammarError(
                    f"epsilon-closure exceeded depth {self.max_depth}; "
                    "the grammar is left-recursive or too deeply nested "
                    "for this stack size"
                )
            for production in self.grammar.productions_for(nonterminal):
                scan(production.index, 0, stack)

        if resume is None:
            assert self.grammar.start is not None
            enter(self.grammar.start, stack)
        else:
            scan(resume[0], resume[1] + 1, stack)
        return results

    # ------------------------------------------------------------------
    def _skip_delimiters(self, data: bytes, position: int) -> int:
        while position < len(data) and data[position] in self.delimiters:
            position += 1
        return position

    def _match(self, data: bytes, position: int, occurrence: Occurrence) -> int | None:
        auto = self.automata[occurrence.terminal.name]
        return auto.longest_match(data, position)

    # ------------------------------------------------------------------
    def run(self, data: bytes) -> list[StackedToken]:
        """Tag a complete sentence (or stream); raise on violation.

        Raises :class:`ParseError` when no thread can consume the whole
        input with balanced recursion — this is exactly the error
        detection the stack buys (§3.1/§5.2).
        """
        # Threads are merged per round on (position, stack, resume):
        # two threads agreeing on those have identical futures, so only
        # the representative that would win the final tie-break — most
        # tokens, then fewest sentences — needs to survive. Without the
        # merge, ambiguous grammars fork exponentially many equivalent
        # threads and trip the cap on inputs the grammar accepts.
        start = self._skip_delimiters(data, 0)
        threads: dict[
            tuple[int, Stack, tuple[int, int] | None], _Thread
        ] = {(start, (), None): _Thread(position=start, stack=())}
        memo: dict[
            tuple[tuple[int, int] | None, Stack],
            list[tuple[Occurrence | None, Stack]],
        ] = {}
        best_error = 0

        def expect(
            resume: tuple[int, int] | None, stack: Stack
        ) -> list[tuple[Occurrence | None, Stack]]:
            cached = memo.get((resume, stack))
            if cached is None:
                cached = memo[(resume, stack)] = self._expectations(
                    resume, stack
                )
            return cached

        finished: list[_Thread] = []
        while threads:
            if len(threads) > self.max_threads:
                raise ParseError(
                    f"thread explosion (> {self.max_threads}); grammar "
                    "too ambiguous for the stack tagger"
                )
            next_threads: dict[
                tuple[int, Stack, tuple[int, int] | None], _Thread
            ] = {}

            def offer(
                key: tuple[int, Stack, tuple[int, int] | None],
                thread: _Thread,
            ) -> None:
                held = next_threads.get(key)
                if held is None or (
                    len(thread.tokens),
                    -thread.sentences,
                ) > (len(held.tokens), -held.sentences):
                    next_threads[key] = thread

            for (position, stack, resume), thread in threads.items():
                at_end = position >= len(data)
                for occurrence, new_stack in expect(resume, stack):
                    if occurrence is _ACCEPT:
                        if at_end:
                            finished.append(thread)
                        elif self.stream:
                            restart = _Thread(
                                position=position,
                                stack=(),
                                tokens=thread.tokens,
                                sentences=thread.sentences + 1,
                            )
                            offer((position, (), None), restart)
                        continue
                    if at_end:
                        continue
                    length = self._match(data, position, occurrence)
                    if not length:
                        continue
                    end = position + length
                    token = StackedToken(
                        token=TaggedToken.of(
                            occurrence, data[position:end], position, end
                        ),
                        depth=len(new_stack),
                    )
                    best_error = max(best_error, end)
                    advanced = _Thread(
                        position=self._skip_delimiters(data, end),
                        stack=new_stack,
                        tokens=thread.tokens + (token,),
                        sentences=thread.sentences,
                    )
                    offer(
                        (
                            advanced.position,
                            new_stack,
                            (occurrence.production, occurrence.position),
                        ),
                        advanced,
                    )
            threads = next_threads

        if not finished:
            raise ParseError(
                "input violates the grammar's recursive structure",
                position=best_error,
            )
        # Deterministic choice: most tokens, then fewest sentences.
        best = max(finished, key=lambda t: (len(t.tokens), -t.sentences))
        return list(best.tokens)

    # ------------------------------------------------------------------
    def tag(self, data: bytes) -> list[TaggedToken]:
        """Tagged tokens of a conforming input (strict recognition)."""
        return [stacked.token for stacked in self.run(data)]

    def accepts(self, data: bytes) -> bool:
        """Whole-input recognition — the full CFG membership test."""
        try:
            self.run(data)
            return True
        except ParseError:
            return False

    def max_observed_depth(self, data: bytes) -> int:
        """Deepest recursion used — sizes the §5.2 hardware stack."""
        return max((s.depth for s in self.run(data)), default=0)
