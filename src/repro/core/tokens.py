"""Tagged-token data model: what the tagger reports to the back-end.

"The back-end receives the token index along with the pattern for
application level processing." (§3.1) A :class:`TaggedToken` carries
the token identity, its grammatical context (the duplicated-occurrence
tag), the matched lexeme, and stream positions.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.grammar.analysis import Occurrence

_new = tuple.__new__


class TaggedToken(NamedTuple):
    """One detected token with its grammatical context.

    ``end`` is exclusive: the lexeme is ``data[start:end]``. ``index``
    is the hardware token index emitted by the encoder (§3.4); it is
    ``None`` for behavioral runs configured without an encoder map.

    A named tuple for the reason :class:`~repro.core.scanplan.
    DetectEvent` is one: ``tag()`` emits these in bulk, and a tuple
    subclass is something the native kernel's drain can allocate, fill
    and leave untracked by the cyclic GC (``_nativescan.c``).
    """

    token: str
    occurrence: Occurrence
    lexeme: bytes
    start: int
    end: int
    index: int | None = None

    @classmethod
    def of(cls, occurrence, lexeme, start, end, index=None) -> "TaggedToken":
        """The engines' one builder: positional, the token name read off
        the occurrence, the lexeme as ``bytes`` (a slice of a
        ``bytearray`` or ``memoryview`` input is not one yet)."""
        return _new(
            cls,
            (occurrence.terminal.name, occurrence, bytes(lexeme), start, end, index),
        )

    @property
    def context(self) -> str:
        """Occurrence tag, e.g. ``p3.1`` = production 3, position 1."""
        return self.occurrence.context_name()

    def text(self) -> str:
        return self.lexeme.decode("utf-8", errors="replace")

    def __str__(self) -> str:
        return (
            f"{self.token}@{self.context}[{self.start}:{self.end}]"
            f"={self.text()!r}"
        )
