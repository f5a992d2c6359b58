"""Token-mask lowering for constrained decoding.

The paper's tagger consults a precompiled automaton once per input
byte; constrained LLM decoding consults a grammar once per *token* —
"which of the vocabulary's tokens may the model emit from the current
parse state?".  This module lowers the shared scan IR
(:mod:`repro.core.scanir` — the same object the vector and native
engines step) into exactly that query:

* **Class-reduced stepping.** The IR's byte-equivalence classes
  collapse each token's bytes into a short class string
  (``bytes.translate``), and stepping happens over the IR's flat
  ``next[state * C + class]`` array — the paper's character-class
  decoder applied to token walking.  Distinct tokens with the same
  class string are indistinguishable to the automaton, which is the
  "token space compression" observation from PAPERS.md: the walk is
  done once per class string, not once per token.

* **Doomed-state analysis.** A mask bit must be 0 not only when a
  token's bytes step through an error, but when they strand the
  automaton where no detection can ever fire again (the §5.2 dead
  state, or a lost state under error recovery whose every outgoing
  edge would report an error).  ``doomed`` is the complement of the
  backward closure of the event-emitting/EOF-detecting states over
  error-free edges; it is forward-closed, so a single check on the
  token's final state suffices — and it prunes whole trie subtrees
  during precompute.

* **Shared-prefix trie walk.** Per-state validity for a token set is
  computed by one DFS over a trie of class strings
  (:meth:`MaskLowering.row_from_trie`), so shared prefixes ("<met",
  "<method", "<methodName>") are stepped once per state instead of
  once per token.  The same walk serves both halves of the mask
  table: eagerly over every state for the context-independent
  tokens, and once per state on first visit for the
  context-dependent remainder.

Everything here is pure Python over the NumPy-free IR, so mask
lowering works under ``REPRO_DISABLE_NUMPY=1`` and in the pool
workers.  The packed-row format, the context-independent vs
context-dependent token split and the on-disk artifact live one layer
up in :mod:`repro.apps.structgen.masks`.
"""

from __future__ import annotations

import sys
from array import array
from hashlib import sha256

from repro.core.compiled import CompiledTagger
from repro.core.scanir import scan_ir_for

__all__ = ["MaskInfeasible", "MaskLowering"]


class MaskInfeasible(RuntimeError):
    """The product automaton resisted densification (state cap), so
    per-state mask tables cannot be built for this grammar/wiring."""


class MaskLowering:
    """Doomed-state analysis and token walks over the scan IR of one
    (grammar, wiring) pair.

    A token is *valid* in state ``s`` iff walking its byte classes
    from ``s`` crosses no error edge and its final state is not
    doomed.  Under error recovery a lost state reports the error on
    its *next* step (the §5.2 liveness cut looks one byte back), so
    the error flag is a property of the source state — the IR's
    ``lost`` flags — and lost states are doomed by construction (every
    outgoing edge is an error edge).
    """

    __slots__ = ("ir", "n_states", "n_classes", "class_table", "doomed")

    def __init__(self, tagger: CompiledTagger) -> None:
        ir = scan_ir_for(tagger)
        if ir is None:
            raise MaskInfeasible(
                "product automaton too large to densify; no mask tables"
            )
        self.ir = ir
        n = self.n_states = ir.n_states
        n_classes = self.n_classes = ir.n_classes
        self.class_table = ir.class_table
        nxt = ir.next
        lost = ir.lost

        # Doomed = cannot reach an event or a valid EOF over
        # error-free edges.  Backward BFS from the seeds; edges out of
        # lost states are error edges and do not propagate liveness.
        rev: list[list[int]] = [[] for _ in range(n)]
        for tid in range(n):
            if lost[tid]:
                continue
            for ntid in set(nxt[tid * n_classes : (tid + 1) * n_classes]):
                rev[ntid].append(tid)
        doomed = bytearray(b"\x01") * n
        frontier = []
        for tid in range(n):
            if (ir.emits[tid] or ir.eof[tid]) and not lost[tid]:
                doomed[tid] = 0
                frontier.append(tid)
        while frontier:
            reached = []
            for tid in frontier:
                for pred in rev[tid]:
                    if doomed[pred]:
                        doomed[pred] = 0
                        reached.append(pred)
            frontier = reached
        #: One flag byte per state, the layout the beam kernel reads.
        self.doomed = bytes(doomed)

    # ------------------------------------------------------------------
    def codes(self, token: bytes) -> bytes:
        """The token's byte-class string (what every walk consumes)."""
        return token.translate(self.class_table)

    def walk(self, tid: int, codes: bytes) -> int:
        """Step a class string from ``tid``; -1 on an error edge."""
        nxt = self.ir.next
        lost = self.ir.lost
        n_classes = self.n_classes
        for c in codes:
            if lost[tid]:
                return -1
            tid = nxt[tid * n_classes + c]
        return tid

    # ------------------------------------------------------------------
    def build_trie(self, groups: dict[bytes, list[int]]) -> tuple[list, int]:
        """Trie over class strings.  ``groups`` maps a class string to
        the token ids sharing it (token space compression: one walk
        per class string).  A node is ``[children: dict, ends: list]``.
        Returns (root, node_count)."""
        root: list = [{}, []]
        count = 1
        for codes, ids in groups.items():
            node = root
            for c in codes:
                child = node[0].get(c)
                if child is None:
                    child = [{}, []]
                    node[0][c] = child
                    count += 1
                node = child
            node[1].extend(ids)
        return root, count

    def row_from_trie(
        self, root: list, s0: int, rows: bytearray, base: int
    ) -> None:
        """OR the validity bits of the trie's tokens from start state
        ``s0`` into the packed row at ``rows[base:]``.

        One DFS, pruning on doomed next states (doomed is
        forward-closed, so the whole subtree is invalid).  Lost states
        are doomed, so the walk never stands on one and crosses no
        error edge.  Bit ``i`` (LSB-first within each byte) is token
        ``i``'s validity from ``s0``.
        """
        doomed = self.doomed
        if doomed[s0]:
            return
        nxt = self.ir.next
        n_classes = self.n_classes
        stack = [(root, s0)]
        push = stack.append
        pop = stack.pop
        while stack:
            node, s = pop()
            for tok in node[1]:
                rows[base + (tok >> 3)] |= 1 << (tok & 7)
            edge = s * n_classes
            for c, child in node[0].items():
                ns = nxt[edge + c]
                if not doomed[ns]:
                    push((child, ns))

    def rows_from_trie(self, root: list, n_tokens: int) -> bytearray:
        """Packed per-state validity rows over the trie's tokens:
        :meth:`row_from_trie` from every start state."""
        row_bytes = (n_tokens + 7) // 8
        rows = bytearray(self.n_states * row_bytes)
        for s0 in range(self.n_states):
            self.row_from_trie(root, s0, rows, s0 * row_bytes)
        return rows

    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content hash of the lowered tables.

        Mask rows are indexed by the IR's state ids, which the grammar
        and wiring alone fix; a blob built against other tables (a
        changed grammar or closure) is meaningless here.  The loader
        compares fingerprints and rebuilds on mismatch instead of
        serving misaligned rows.
        """
        h = sha256()
        h.update(b"maskgen-fp1")
        h.update(bytes((self.n_states & 0xFF, self.n_states >> 8 & 0xFF)))
        h.update(self.class_table)
        # Next states as little-endian u16 (the state cap fits).
        step = array("H", self.ir.next)
        if sys.byteorder == "big":
            step.byteswap()
        h.update(step.tobytes())
        h.update(self.ir.lost)
        h.update(self.doomed)
        h.update(bytes(map(bool, self.ir.eof)))  # end-of-data flags
        return h.hexdigest()
