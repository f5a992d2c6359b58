"""Token-mask lowering for constrained decoding.

The paper's tagger consults a precompiled automaton once per input
byte; constrained LLM decoding consults a grammar once per *token* —
"which of the vocabulary's tokens may the model emit from the current
parse state?".  This module lowers the compiled product automaton
(:mod:`repro.core.compiled`) into exactly that query, reusing the
dense closure the vector and native engines already build
(:func:`repro.core.vectorscan._dense_tables_for`):

* **Class-reduced step tables.** The closure's byte-equivalence
  classes collapse each token's bytes into a short class string
  (``bytes.translate``), and stepping happens over a per-state
  ``n_classes``-wide next-state row — the paper's character-class
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

Everything here is pure Python over the NumPy-free closure, so mask
lowering works under ``REPRO_DISABLE_NUMPY=1`` and in the pool
workers.  The packed-row format, the context-independent vs
context-dependent token split and the on-disk artifact live one layer
up in :mod:`repro.apps.structgen.masks`.
"""

from __future__ import annotations

from hashlib import sha256

from repro.core.compiled import EOF, CompiledTagger

__all__ = ["MaskInfeasible", "MaskLowering"]

class MaskInfeasible(RuntimeError):
    """The product automaton resisted densification (state cap), so
    per-state mask tables cannot be built for this grammar/wiring."""


class MaskLowering:
    """Class-reduced step tables + doomed/EOF analysis for one
    (grammar, wiring) pair.

    A token is *valid* in state ``s`` iff walking its byte classes
    from ``s`` crosses no error edge and its final state is not
    doomed.  Under error recovery a lost state reports the error on
    its *next* step (the §5.2 liveness cut looks one byte back), so
    the error flag is a property of the source state — precomputed
    into :attr:`err_state` — and lost states are doomed by
    construction (every outgoing edge is an error edge).
    """

    __slots__ = (
        "tables",
        "n_states",
        "n_classes",
        "class_table",
        "step",
        "err_state",
        "doomed",
        "eos",
    )

    def __init__(self, tagger: CompiledTagger) -> None:
        from repro.core.vectorscan import _dense_tables_for

        vt = _dense_tables_for(tagger)
        if vt is None:
            raise MaskInfeasible(
                "product automaton too large to densify; no mask tables"
            )
        self.tables = tagger.tables
        n = vt.n_states
        self.n_states = n
        self.class_table = vt.class_table
        self.n_classes = len(vt.repr_byte)
        edges = vt.edges
        repr_byte = vt.repr_byte

        # Per-state class-indexed next-state rows; remember which
        # states have an event-emitting outgoing edge (liveness seeds).
        step: list[list[int]] = []
        emits = [False] * n
        for tid in range(n):
            base = tid << 8
            row = []
            for byte in repr_byte:
                sig = edges[base | byte]
                if sig.__class__ is int:
                    row.append(sig)
                else:
                    row.append(sig[0])
                    if sig[1]:
                        emits[tid] = True
            step.append(row)
        self.step = step

        # Lost states (§5.2): the liveness cut depends only on the
        # source state, so "this step reports an error" is per-state.
        tstates = self.tables.tstates
        recovery = self.tables.recovery
        err = [False] * n
        for tid in range(n):
            items, armed, pdet, first = tstates[tid]
            if recovery and not first and not (items or armed or pdet):
                err[tid] = True
        self.err_state = err

        # EOF detection (mirrors CompiledTagger._flush): some pending
        # unit detects with the end-of-data look-ahead.
        unit_dfas = self.tables.unit_dfas
        eos = [False] * n
        for tid in range(n):
            for u, s in tstates[tid][0]:
                if unit_dfas[u].detect_masks[s] >> EOF & 1:
                    eos[tid] = True
                    break
        self.eos = eos

        # Doomed = cannot reach an event or a valid EOF over
        # error-free edges.  Backward BFS from the seeds; edges out of
        # lost states are error edges and do not propagate liveness.
        rev: list[list[int]] = [[] for _ in range(n)]
        for tid in range(n):
            if err[tid]:
                continue
            for ntid in set(step[tid]):
                rev[ntid].append(tid)
        live = [False] * n
        frontier = []
        for tid in range(n):
            if (emits[tid] or eos[tid]) and not err[tid]:
                live[tid] = True
                frontier.append(tid)
        while frontier:
            nxt = []
            for tid in frontier:
                for pred in rev[tid]:
                    if not live[pred]:
                        live[pred] = True
                        nxt.append(pred)
            frontier = nxt
        self.doomed = [not ok for ok in live]

    # ------------------------------------------------------------------
    def codes(self, token: bytes) -> bytes:
        """The token's byte-class string (what every walk consumes)."""
        return token.translate(self.class_table)

    def walk(self, tid: int, codes: bytes) -> int:
        """Step a class string from ``tid``; -1 on an error edge."""
        step = self.step
        err = self.err_state
        for c in codes:
            if err[tid]:
                return -1
            tid = step[tid][c]
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

        One DFS, pruning on error states (every continuation reports
        an error) and doomed next states (doomed is forward-closed, so
        the whole subtree is invalid).  Bit ``i`` (LSB-first within
        each byte) is token ``i``'s validity from ``s0``.
        """
        doomed = self.doomed
        if doomed[s0]:
            return
        step = self.step
        err = self.err_state
        stack = [(root, s0)]
        push = stack.append
        pop = stack.pop
        while stack:
            node, s = pop()
            for tok in node[1]:
                rows[base + (tok >> 3)] |= 1 << (tok & 7)
            if err[s]:
                continue
            row = step[s]
            for c, child in node[0].items():
                ns = row[c]
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

        State ids come from the interning order of the compiled
        tables; a mask artifact built against one interning order is
        meaningless against another (e.g. a tagger that scanned data
        before the closure ran).  The loader compares fingerprints and
        rebuilds on mismatch instead of serving misaligned rows.
        """
        h = sha256()
        h.update(b"maskgen-fp1")
        h.update(bytes((self.n_states & 0xFF, self.n_states >> 8 & 0xFF)))
        h.update(self.class_table)
        pack = int.to_bytes
        for row in self.step:
            for ntid in row:
                h.update(pack(ntid, 2, "little"))
        h.update(bytes(self.err_state))
        h.update(bytes(self.doomed))
        h.update(bytes(self.eos))
        return h.hexdigest()
