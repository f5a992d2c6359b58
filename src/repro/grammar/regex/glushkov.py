"""Glushkov position automaton for token patterns.

The hardware templates of the paper's Fig. 6 — a register per pattern
character, chained for sequence, looped for One-or-More/Zero-or-More,
bypassed for One-or-None — are precisely the Glushkov (position)
construction of a regular expression: one state per character position,
no epsilon transitions. This module computes the construction's
``first``, ``last`` and ``follow`` sets; the hardware generator then
emits one register per position and one wire per follow edge.

The *extension sets* of the last positions (which bytes could continue
the match) drive the longest-match look-ahead of Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UnsupportedPatternError
from repro.grammar.regex.ast import (
    Alt,
    AnyChar,
    CharClass,
    Empty,
    Literal,
    Regex,
    Repeat,
    Seq,
)
from repro.grammar.regex import ast as rx


def normalize_repeats(node: Regex) -> Regex:
    """Expand bounded repeats into copies so only ``?``/``*``/``+`` remain.

    ``x{3}`` becomes ``x x x``; ``x{1,3}`` becomes ``x x? x?``;
    ``x{2,}`` becomes ``x x+`` — mirroring how a hardware generator
    unrolls fixed counts into chain stages (the paper's YEAR token is
    written pre-unrolled as ``[0-9][0-9][0-9][0-9]``).
    """
    if isinstance(node, (Empty, Literal, CharClass, AnyChar)):
        return node
    if isinstance(node, Seq):
        return rx.seq(*(normalize_repeats(item) for item in node.items))
    if isinstance(node, Alt):
        return rx.alt(*(normalize_repeats(option) for option in node.options))
    if isinstance(node, Repeat):
        item = normalize_repeats(node.item)
        key = (node.min_count, node.max_count)
        if key in ((0, 1), (0, None), (1, None)):
            return Repeat(item, *key)
        copies: list[Regex] = [item] * node.min_count
        if node.max_count is None:
            if node.min_count == 0:
                return Repeat(item, 0, None)
            copies[-1] = Repeat(item, 1, None)
        else:
            copies.extend([Repeat(item, 0, 1)] * (node.max_count - node.min_count))
        return rx.seq(*copies)
    raise TypeError(f"not a regex node: {node!r}")


@dataclass
class Glushkov:
    """Position automaton of a pattern.

    * ``position_bytes[p]`` — the byte set position ``p`` matches;
    * ``first`` — positions that may consume the first character;
    * ``last`` — positions whose character may end a match;
    * ``follow[p]`` — positions that may consume the character after
      the one consumed at ``p``;
    * ``nullable`` — whether the empty string matches.
    """

    pattern: Regex
    position_bytes: list[frozenset[int]]
    first: frozenset[int]
    last: frozenset[int]
    follow: dict[int, frozenset[int]]
    nullable: bool

    @property
    def n_positions(self) -> int:
        return len(self.position_bytes)

    # ------------------------------------------------------------------
    # Dense table extraction (for compiled scan engines)
    #
    # The hardware flattens the construction into wires; a software
    # fast path flattens it into integers instead: each byte set
    # becomes a 256-bit mask (bit b set ⇔ the position matches byte
    # b), and first/last/follow become position bitmasks. All results
    # are memoized on the instance — the construction is immutable
    # after :func:`build_glushkov`.
    # ------------------------------------------------------------------
    def byte_masks(self) -> list[int]:
        """256-bit byte-membership mask per position."""
        cached = getattr(self, "_byte_masks", None)
        if cached is None:
            cached = [
                sum(1 << b for b in matched) for matched in self.position_bytes
            ]
            object.__setattr__(self, "_byte_masks", cached)
        return cached

    def extension_mask(self, position: int) -> int:
        """256-bit byte mask of :meth:`extension_bytes` (memoized)."""
        cached = getattr(self, "_extension_masks", None)
        if cached is None:
            cached = {}
            object.__setattr__(self, "_extension_masks", cached)
        mask = cached.get(position)
        if mask is None:
            mask = sum(1 << b for b in self.extension_bytes(position))
            cached[position] = mask
        return mask

    def extension_bytes(self, position: int) -> frozenset[int]:
        """Bytes that would extend a match ending at ``position``.

        Used for the longest-match check (Fig. 7): a detection at this
        position must be suppressed while the next character lies in
        this set.
        """
        result: set[int] = set()
        for successor in self.follow.get(position, ()):
            result |= self.position_bytes[successor]
        return frozenset(result)

    # ------------------------------------------------------------------
    # NFA-style simulation (reference semantics for tests / oracle)
    # ------------------------------------------------------------------
    def step(self, states: frozenset[int], byte: int) -> frozenset[int]:
        """Advance the set of *candidate* positions by one byte.

        A position is a candidate when its byte may be consumed next;
        stepping keeps the candidates that match and activates their
        successors.
        """
        moved: set[int] = set()
        for position in states:
            if byte in self.position_bytes[position]:
                moved.update(self.follow.get(position, ()))
        return frozenset(moved)

    def longest_match(self, data: bytes, start: int = 0) -> int | None:
        """Reference longest-match length (oracle for the hardware)."""
        best: int | None = 0 if self.nullable else None
        active = set(self.first)
        for offset in range(start, len(data)):
            byte = data[offset]
            consumed = {p for p in active if byte in self.position_bytes[p]}
            if not consumed:
                break
            if consumed & self.last:
                best = offset - start + 1
            active = set()
            for position in consumed:
                active |= self.follow.get(position, set())
        return best


def build_glushkov(node: Regex) -> Glushkov:
    """Run the Glushkov construction on a (normalized) pattern.

    Raises :class:`UnsupportedPatternError` for patterns that match the
    empty string — a token that can be empty has no hardware detector
    (and no lexical meaning).
    """
    node = normalize_repeats(node)

    position_bytes: list[frozenset[int]] = []

    def linearize(n: Regex) -> Regex:
        """Replace each char leaf with a positioned marker."""
        if isinstance(n, (Literal, CharClass, AnyChar)):
            matched = (
                frozenset({n.byte}) if isinstance(n, Literal) else n.matched_bytes()
            )
            if not matched:
                raise UnsupportedPatternError(
                    f"pattern position matches no byte: {n}"
                )
            position_bytes.append(matched)
            return _Pos(len(position_bytes) - 1)
        if isinstance(n, Empty):
            return n
        if isinstance(n, Seq):
            return Seq(tuple(linearize(i) for i in n.items))
        if isinstance(n, Alt):
            return Alt(tuple(linearize(o) for o in n.options))
        if isinstance(n, Repeat):
            return Repeat(linearize(n.item), n.min_count, n.max_count)
        raise TypeError(f"not a regex node: {n!r}")

    marked = linearize(node)
    nullable = _nullable(marked)
    if nullable:
        raise UnsupportedPatternError(
            "token pattern matches the empty string; every token must "
            "consume at least one character"
        )
    first = _first(marked)
    last = _last(marked)
    follow: dict[int, set[int]] = {p: set() for p in range(len(position_bytes))}
    _collect_follow(marked, follow)
    return Glushkov(
        pattern=node,
        position_bytes=position_bytes,
        first=frozenset(first),
        last=frozenset(last),
        follow={p: frozenset(s) for p, s in follow.items()},
        nullable=nullable,
    )


@dataclass(frozen=True)
class _Pos:
    """A linearized character position (internal marker node)."""

    index: int


def _nullable(n) -> bool:
    if isinstance(n, Empty):
        return True
    if isinstance(n, _Pos):
        return False
    if isinstance(n, Seq):
        return all(_nullable(i) for i in n.items)
    if isinstance(n, Alt):
        return any(_nullable(o) for o in n.options)
    if isinstance(n, Repeat):
        return n.min_count == 0 or _nullable(n.item)
    raise TypeError(f"unexpected node {n!r}")


def _first(n) -> set[int]:
    if isinstance(n, Empty):
        return set()
    if isinstance(n, _Pos):
        return {n.index}
    if isinstance(n, Seq):
        result: set[int] = set()
        for item in n.items:
            result |= _first(item)
            if not _nullable(item):
                break
        return result
    if isinstance(n, Alt):
        result = set()
        for option in n.options:
            result |= _first(option)
        return result
    if isinstance(n, Repeat):
        return _first(n.item)
    raise TypeError(f"unexpected node {n!r}")


def _last(n) -> set[int]:
    if isinstance(n, Empty):
        return set()
    if isinstance(n, _Pos):
        return {n.index}
    if isinstance(n, Seq):
        result: set[int] = set()
        for item in reversed(n.items):
            result |= _last(item)
            if not _nullable(item):
                break
        return result
    if isinstance(n, Alt):
        result = set()
        for option in n.options:
            result |= _last(option)
        return result
    if isinstance(n, Repeat):
        return _last(n.item)
    raise TypeError(f"unexpected node {n!r}")


def _collect_follow(n, follow: dict[int, set[int]]) -> None:
    if isinstance(n, (Empty, _Pos)):
        return
    if isinstance(n, Seq):
        for item in n.items:
            _collect_follow(item, follow)
        # last(prefix) -> first(suffix) across each junction
        for i in range(len(n.items) - 1):
            lasts = _last(n.items[i])
            # first of the remainder, skipping nullable items
            firsts: set[int] = set()
            for j in range(i + 1, len(n.items)):
                firsts |= _first(n.items[j])
                if not _nullable(n.items[j]):
                    break
            for p in lasts:
                follow[p] |= firsts
        return
    if isinstance(n, Alt):
        for option in n.options:
            _collect_follow(option, follow)
        return
    if isinstance(n, Repeat):
        _collect_follow(n.item, follow)
        if n.max_count is None:  # the loop edge of * and +
            firsts = _first(n.item)
            for p in _last(n.item):
                follow[p] |= firsts
        return
    raise TypeError(f"unexpected node {n!r}")
