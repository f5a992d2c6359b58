"""Context-aware signature scanning (the §5.1 NIDS application).

"Other applications for the networking community include more
powerful network intrusion detection and prevention systems…" — the
point being that a signature hit inside the *right* grammatical
context is an alert, while the same byte pattern elsewhere is benign
(the false-positive problem of §1).

:class:`ContextSignatureScanner` pairs a protocol grammar with
signatures scoped to elements of the message; it reports each
signature hit with its grammatical context and a verdict, alongside a
naive context-free scan for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.tagger import BehavioralTagger
from repro.grammar.cfg import Grammar
from repro.software.naive import NaiveScanner, ScanHit


@dataclass(frozen=True)
class Signature:
    """A byte pattern that is malicious only in certain contexts.

    ``contexts`` lists element (non-terminal) names where a hit is a
    true alert; hits anywhere else are benign payload bytes.
    """

    name: str
    pattern: bytes
    contexts: frozenset[str]


@dataclass(frozen=True)
class SignatureAlert:
    """One contextual signature hit."""

    signature: str
    context: str
    start: int
    end: int


@dataclass
class ScanComparison:
    """Contextual alerts vs naive hits for the same stream."""

    alerts: list[SignatureAlert]
    naive_hits: list[ScanHit]

    @property
    def false_positives(self) -> int:
        """Naive hits that the contextual scan did not alert on."""
        alerted = {(a.start, a.end) for a in self.alerts}
        return sum(
            1 for hit in self.naive_hits if (hit.start, hit.end) not in alerted
        )


class ContextSignatureScanner:
    """Scans a tagged stream for in-context signature hits."""

    def __init__(
        self,
        grammar: Grammar,
        signatures: list[Signature],
        tagger: BehavioralTagger | None = None,
    ) -> None:
        self.grammar = grammar
        self.signatures = signatures
        self.tagger = tagger if tagger is not None else BehavioralTagger(grammar)
        element_of = {p.index: p.lhs.name for p in grammar.productions}
        #: token encoder index (unique per unit: an int, hashed in C
        #: per token) -> element (lhs) name, for context lookup
        self._element_of: dict[int, str] = {
            self.tagger.index_of(unit): element_of[unit.production]
            for unit in self.tagger.units
        }

    # ------------------------------------------------------------------
    def scan(self, data: bytes) -> list[SignatureAlert]:
        """Contextual alerts: signature bytes inside a scoped element."""
        alerts: list[SignatureAlert] = []
        for token in self.tagger.tag(data):
            element = self._element_of.get(token.index, "")
            for signature in self.signatures:
                if element not in signature.contexts:
                    continue
                offset = token.lexeme.find(signature.pattern)
                while offset >= 0:
                    alerts.append(
                        SignatureAlert(
                            signature=signature.name,
                            context=element,
                            start=token.start + offset,
                            end=token.start + offset + len(signature.pattern),
                        )
                    )
                    offset = token.lexeme.find(signature.pattern, offset + 1)
        return alerts

    def compare_with_naive(self, data: bytes) -> ScanComparison:
        """Contextual scan vs a context-free string sweep."""
        naive = NaiveScanner.find_strings(
            data, [s.pattern for s in self.signatures]
        )
        return ScanComparison(alerts=self.scan(data), naive_hits=naive)
