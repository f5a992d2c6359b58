"""Token-context content filter (a §3.5 / §5.1 application).

"Contextual information of the tokens can be used to process the data
more accurately to reduce the number of false positive. Some of the
most obvious applications would be in data filtering…" (§3.5)

A :class:`ContentFilter` drops or flags messages whose tokens match
forbidden values *in specific grammatical contexts* — e.g. forbid the
method name ``withdraw`` while leaving the same word legal inside a
string parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.tagger import BehavioralTagger
from repro.core.tokens import TaggedToken
from repro.grammar.cfg import Grammar


@dataclass(frozen=True)
class FilterRule:
    """Forbid ``value`` when it appears inside element ``context``.

    ``context`` names a non-terminal (an element); the rule matches
    any non-literal token directly inside that element's productions.
    A ``context`` of ``None`` matches the value in *any* context — the
    context-free behaviour, kept for baseline comparisons.
    """

    value: bytes
    context: str | None = None
    action: str = "drop"  # or "flag"


@dataclass
class FilterDecision:
    """Outcome for one message."""

    start: int
    end: int
    dropped: bool
    flags: list[str] = field(default_factory=list)
    payload: bytes = b""


class ContentFilter:
    """Filters a tagged message stream by context-sensitive rules."""

    def __init__(
        self,
        grammar: Grammar,
        rules: list[FilterRule],
        tagger: BehavioralTagger | None = None,
    ) -> None:
        self.grammar = grammar
        self.rules = rules
        self.tagger = tagger if tagger is not None else BehavioralTagger(grammar)
        # Per-token tests key on the token's encoder index (unique per
        # unit on a behavioral tagger): an int, hashed in C.
        index_of = self.tagger.index_of
        self._accepting = frozenset(map(index_of, self.tagger.accepting))
        #: context name -> encoder indices of the data tokens inside it
        self._context_indices: dict[str, set[int]] = {}
        element_of = {p.index: p.lhs.name for p in grammar.productions}
        for unit in self.tagger.units:
            if not grammar.lexspec.get(unit.terminal.name).is_literal:
                self._context_indices.setdefault(
                    element_of[unit.production], set()
                ).add(index_of(unit))

    # ------------------------------------------------------------------
    def _rule_matches(self, rule: FilterRule, token: TaggedToken) -> bool:
        if token.lexeme != rule.value:
            return False
        if rule.context is None:
            return True
        return token.index in self._context_indices.get(rule.context, ())

    def filter(self, data: bytes) -> list[FilterDecision]:
        """Evaluate every message in the stream against the rules."""
        decisions: list[FilterDecision] = []
        message_start: int | None = None
        dropped = False
        flags: list[str] = []
        for token in self.tagger.tag(data):
            if message_start is None:
                message_start = token.start
            for rule in self.rules:
                if self._rule_matches(rule, token):
                    note = (
                        f"{rule.value.decode('latin-1')} in "
                        f"{rule.context or 'any context'}"
                    )
                    if rule.action == "drop":
                        dropped = True
                    flags.append(note)
            if token.index in self._accepting:
                decisions.append(
                    FilterDecision(
                        start=message_start,
                        end=token.end,
                        dropped=dropped,
                        flags=flags,
                        payload=data[message_start : token.end],
                    )
                )
                message_start, dropped, flags = None, False, []
        return decisions

    def passed(self, data: bytes) -> bytes:
        """The stream with dropped messages removed."""
        kept = [
            decision.payload
            for decision in self.filter(data)
            if not decision.dropped
        ]
        return b"".join(kept)
