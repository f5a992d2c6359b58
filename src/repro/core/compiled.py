"""Compiled table-driven scan engine.

The hardware runs at line rate because every per-byte decision is
precompiled into parallel structure; the interpreted software twin
(:meth:`~repro.core.tagger.BehavioralTagger._scan`) re-derives that
work every byte from live Python dicts and frozensets. This module
performs the same precompilation in software, in two fused layers:

* **Per-token product machines.** Each token's Glushkov position
  automaton is fused with its entry input (the Follow-set enable /
  delimiter arming signal of Figs. 6–7 and 11) into a subset machine
  whose transitions are memoized as ``(state, entry, byte) ->
  (next_state, start-propagation moves, detect mask)`` integer-keyed
  rows. The longest-match look-ahead of Fig. 7 (plus the optional
  keyword boundary) is folded into a per-state 257-bit *detect mask* —
  bit ``b`` says "a match ends here if the next byte is ``b``" (bit
  256 is end-of-data) — and the unit-level Follow wiring becomes
  integer bitmasks: the units enabled by a detection are the OR of
  precomputed successor masks.

* **A global product automaton, materialized lazily.** The whole
  tagger's control state — every unit's subset state, the armed set,
  the previous detect set and the §5.2 liveness flag — is interned to
  one integer id, and each ``(id, byte)`` step is memoized as either a
  bare next id (no observable effect: the overwhelmingly common case
  inside a token) or a short program: events to emit, earliest-start
  propagations to apply, an error position to record. The per-byte
  hot loop is then a single dict lookup plus, rarely, a tiny program.
  Match *positions* (earliest starts) are data, not state — they live
  in one flat ``array('q')`` register file (each unit's registers at a
  fixed offset sized by its position count, then one length row) and
  are touched only when a program says so, which is what keeps the
  state space finite.  The native kernel reads and writes the same
  buffer in place.

Detection needs one byte of look-ahead (Fig. 7), so the step for byte
``j`` first resolves byte ``j-1``'s detections; end-of-data resolves
the final byte. The engine is bit-exact with the interpreted one —
same events, same order, same error-recovery positions, same
earliest-start lexemes — which the differential test suite enforces
against the gate-level netlist simulation as well.

A streaming front end (:meth:`CompiledTagger.feed` /
:meth:`CompiledTagger.finish`, or independent :class:`CompiledStream`
sessions) carries the scan state across chunk boundaries, so packet
payloads can be tagged incrementally instead of re-scanning
concatenated buffers. Compiled tables are memoized on the grammar per
wiring, alongside the shared :class:`~repro.core.scanplan.ScanPlan`,
so constructing many taggers for the same grammar costs one build —
and the lazily-materialized rows warmed by one tagger are reused by
every later one.  A step has one form, in register-file indices
(:meth:`_CompiledTables.build_step`), wherever it is stored; only the
compiled loop's own misses fill the memo.
"""

from __future__ import annotations

from array import array

from repro.core.api import StreamSession
from repro.core.options import TaggerOptions
from repro.core.scanplan import (
    DetectEvent,
    ScanPlan,
    _wiring_key,
    build_scan_plan,
)
from repro.core.tokens import TaggedToken
from repro.grammar.cfg import Grammar
from repro.grammar.regex.glushkov import Glushkov

#: Next-byte index used for "end of data" in detect masks and qual keys.
EOF = 256

_ALL_NEXT = (1 << 257) - 1
_ALL_BYTES = (1 << 256) - 1

#: Safety valve for adversarial inputs: past this many memoized global
#: steps, further steps are computed on the fly without being cached
#: (correctness is unaffected — only the memo stops growing).
_MEMO_CAP = 1 << 18


class _TokenDFA:
    """Lazy subset DFA of one token pattern, fused with the entry input.

    States are subsets of Glushkov positions (state 0 = empty). The
    automaton is materialized on demand: the first time a ``(state,
    entry, byte)`` combination is exercised its full table row — next
    state, start-propagation *moves* and the next state's detect mask
    — is built and memoized, keyed by the packed integer
    ``state << 9 | entry << 8 | byte``. Rows are shared by every unit
    (grammar occurrence) of the same token.
    """

    __slots__ = (
        "auto",
        "first",
        "qual_masks",
        "state_ids",
        "state_positions",
        "detect_masks",
        "progs",
        "quals",
    )

    def __init__(
        self, auto: Glushkov, boundary: frozenset[int], longest: bool
    ) -> None:
        self.auto = auto
        self.first = tuple(sorted(auto.first))
        #: per-position 257-bit mask of next bytes for which a match
        #: ending at that position is *reported* (Fig. 7 look-ahead
        #: inverted); 0 for non-last positions. Bit 256: end of data
        #: never suppresses.
        boundary_mask = sum(1 << b for b in boundary)
        self.qual_masks: list[int] = []
        for p in range(auto.n_positions):
            if p in auto.last:
                suppress = boundary_mask
                if longest:
                    suppress |= auto.extension_mask(p)
                self.qual_masks.append(_ALL_NEXT & ~suppress)
            else:
                self.qual_masks.append(0)
        self.state_ids: dict[tuple[int, ...], int] = {(): 0}
        self.state_positions: list[tuple[int, ...]] = [()]
        self.detect_masks: list[int] = [0]
        #: (state<<9 | entry<<8 | byte) -> (next, moves, carry, detect)
        self.progs: dict[int, tuple] = {}
        #: (state<<9 | next_byte) -> indices of qualifying positions
        self.quals: dict[int, tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    def _state_id(self, positions: tuple[int, ...]) -> int:
        sid = self.state_ids.get(positions)
        if sid is None:
            sid = len(self.state_positions)
            self.state_ids[positions] = sid
            self.state_positions.append(positions)
            mask = 0
            for p in positions:
                mask |= self.qual_masks[p]
            self.detect_masks.append(mask)
        return sid

    def build_prog(self, key: int) -> tuple:
        """Materialize one table row (memoized under ``key``)."""
        state, entry, byte = key >> 9, (key >> 8) & 1, key & 0xFF
        src = self.state_positions[state]
        follow = self.auto.follow
        position_bytes = self.auto.position_bytes
        #: newly lit position -> source indices into ``src`` whose
        #: earliest-start values propagate to it (min); an empty tuple
        #: means entry-lit (start = current byte index).
        lit: dict[int, tuple[int, ...]] = {}
        for j, p in enumerate(src):
            for q in follow[p]:
                if byte in position_bytes[q]:
                    lit[q] = lit.get(q, ()) + (j,)
        if entry:
            for q in self.first:
                if byte in position_bytes[q]:
                    lit.setdefault(q, ())
        positions = tuple(sorted(lit))
        nst = self._state_id(positions)
        moves = tuple(lit[q] for q in positions)
        # carry: the move is an index-wise identity, so the earliest-
        # start list is unchanged and can be reused as-is.
        carry = bool(src) and moves == tuple((j,) for j in range(len(src)))
        prog = (nst, moves, carry, self.detect_masks[nst])
        self.progs[key] = prog
        return prog

    def build_qual(self, key: int) -> tuple[int, ...]:
        """Indices (into the state's position tuple) of positions whose
        match is reported given the next-byte index in ``key``."""
        state, nb = key >> 9, key & 0x1FF
        qual_masks = self.qual_masks
        q = tuple(
            j
            for j, p in enumerate(self.state_positions[state])
            if qual_masks[p] >> nb & 1
        )
        self.quals[key] = q
        return q


class _CompiledTables:
    """Flattened whole-tagger tables plus the lazily-built global
    product automaton, shared by every tagger over one (grammar,
    wiring) pair.

    A global control state is the tuple ``(states_items, armed, pdet,
    first)``: the non-empty per-unit subset states (ascending unit
    order), the armed bitmask, the *previous* byte's detect bitmask
    (needed one step later by the §5.2 liveness cut) and the
    start-of-data flag. States are interned to integer ids; the step
    memo maps ``id << 8 | byte`` to what :meth:`build_step` returned
    there, and only the compiled loop fills it, on its own misses.
    """

    __slots__ = (
        "n_units",
        "units",
        "reg_ofs",
        "blank",
        "unit_dfas",
        "succ_masks",
        "start_mask",
        "delim",
        "always",
        "recovery",
        "tids",
        "tstates",
        "memo",
    )

    def __init__(self, plan: ScanPlan) -> None:
        dfas: dict[str, _TokenDFA] = {}
        for name, auto in plan.automata.items():
            dfas[name] = _TokenDFA(auto, plan.boundary[name], plan.longest_match)
        order = plan.unit_order
        self.n_units = len(plan.units)
        # Occurrences of the same token share one DFA, so a row warmed
        # by one context is free for every other.
        self.unit_dfas = [dfas[u.terminal.name] for u in plan.units]
        self.succ_masks = [
            sum(1 << order[t] for t in plan.successors[u]) for u in plan.units
        ]
        self.start_mask = sum(1 << order[u] for u in plan.starts)
        self.delim = tuple(b in plan.delimiters for b in range(256))
        self.always = plan.wiring.start_mode == "always"
        self.recovery = plan.wiring.error_recovery
        self.units = plan.units
        # The register file: unit u's registers from reg_ofs[u], the
        # length row from reg_ofs[-1] (see _ScanState).
        caps = self.unit_caps()
        self.reg_ofs = tuple(sum(caps[:u]) for u in range(self.n_units + 1))
        self.blank = array("q", bytes(8 * (self.reg_ofs[-1] + self.n_units)))
        self.tids: dict[tuple, int] = {}
        self.tstates: list[tuple] = []
        #: the compiled loop's step memo, ``id << 8 | byte`` -> step
        self.memo: dict[int, object] = {}
        self._intern(((), 0, 0, True))  # id 0: start of data

    # ------------------------------------------------------------------
    def unit_caps(self) -> tuple[int, ...]:
        """Per-unit start-register capacity: the bound on every
        register index a step's events and start moves can name."""
        return tuple(max(1, dfa.auto.n_positions) for dfa in self.unit_dfas)

    def eof_events(self, tid: int) -> tuple:
        """The events end-of-data resolves in state ``tid``: what byte
        ``EOF`` would detect."""
        return self._detections(self.tstates[tid][0], EOF)[1]

    def _detections(self, states_items, nb: int) -> tuple[int, tuple]:
        """The units whose match next-byte index ``nb`` reports, as a
        bitmask, and their ``(unit, registers)`` events."""
        det, events, ofs = 0, (), self.reg_ofs
        for u, s in states_items:
            dfa = self.unit_dfas[u]
            if dfa.detect_masks[s] >> nb & 1:
                det |= 1 << u
                qkey = s << 9 | nb
                q = dfa.quals.get(qkey) or dfa.build_qual(qkey)
                events += ((u, tuple(ofs[u] + j for j in q)),)
        return det, events

    def _intern(self, t: tuple) -> int:
        tid = self.tids.get(t)
        if tid is None:
            tid = len(self.tstates)
            self.tids[t] = tid
            self.tstates.append(t)
        return tid

    def _byte_classes(self) -> list[int]:
        """The Fig. 5 decoder: {0..255} refined by every byte set a step
        tests (delimiters; each position's bytes, for ``build_prog``;
        each position's qualifying next bytes, for detect masks and
        ``build_qual``), as 256-bit masks ordered by lowest byte.  The
        bytes of a class step alike from every state, so a new byte
        test in :meth:`build_step` must refine this too."""
        tests = {sum(1 << b for b in range(256) if self.delim[b])}
        for dfa in self.unit_dfas:
            tests.update(dfa.auto.byte_masks())
            tests.update(mask & _ALL_BYTES for mask in dfa.qual_masks)
        classes = [_ALL_BYTES]
        for test in tests:
            classes = [p for c in classes for p in (c & test, c & ~test) if p]
        return sorted(classes, key=lambda c: c & -c)

    def build_step(self, tid: int, byte: int):
        """One global step (memoizing nothing): a bare ``next_id << 8``,
        or ``(next_id << 8, events, start_ops, err)`` with events as
        ``(unit, registers)`` and start moves as ``(copies, sets,
        lengths)``: ``(register, sources)`` pairs, all sources read
        before any register is set; registers set to the position;
        ``(length-row register, count)`` pairs.

        Mirrors one iteration of the interpreted per-byte loop, with
        byte ``j-1``'s detections resolved now that their look-ahead
        byte is known.
        """
        states_items, armed, pdet, first = self.tstates[tid]
        unit_dfas = self.unit_dfas

        # 1. Detections of the previous byte (its position registers
        #    are this state; ``byte`` is their look-ahead).
        det, events = self._detections(states_items, byte)

        # 2. §5.2 liveness cut of the previous byte: position state,
        #    arming, or the byte before's registered detects.
        lost = (
            self.recovery
            and not first
            and not (states_items or armed or pdet)
        )

        # 3. Enables: one OR of precomputed successor masks.
        em = 0
        dm = det
        succ_masks = self.succ_masks
        while dm:
            lsb = dm & -dm
            em |= succ_masks[lsb.bit_length() - 1]
            dm -= lsb
        if self.always or first or lost:
            em |= self.start_mask
        entry = em | armed
        new_armed = entry if self.delim[byte] else 0

        # 4. Per-unit product transitions.
        state_of = dict(states_items)
        new_items: list[tuple[int, int]] = []
        ofs = self.reg_ofs
        copies, sets, lengths = [], [], []
        m = sum(1 << u for u in state_of) | entry
        while m:
            lsb = m & -m
            m -= lsb
            u = lsb.bit_length() - 1
            dfa = unit_dfas[u]
            key = state_of.get(u, 0) << 9 | (256 if entry & lsb else 0) | byte
            nst, moves, carry, _dmask = dfa.progs.get(key) or dfa.build_prog(key)
            if nst:
                new_items.append((u, nst))
                if not carry:
                    base = ofs[u]
                    for x, srcs in enumerate(moves):
                        if srcs:
                            copies.append((base + x, tuple(base + j for j in srcs)))
                        else:
                            sets.append(base + x)
                    lengths.append((ofs[-1] + u, len(moves)))

        ntid = self._intern((tuple(new_items), new_armed, det, False))
        start_ops = (tuple(copies), tuple(sets), tuple(lengths)) if lengths else None
        if events or start_ops or lost:  # the cut reports an error
            return (ntid << 8, events or None, start_ops, lost)
        return ntid << 8


def pack_selected(
    pairs: list[tuple[DetectEvent, int]],
    unit_order: dict,
    select: bytes,
    carry,
) -> list[int]:
    """The packed sink, portably: the records the native kernel writes
    for ``select`` and ``carry`` (``_nativescan.c`` has the contract),
    derived from ``(event, match start)`` pairs as a flat list of
    ``unit, end, start`` ints.

    Any hit opens a message at its match start (``carry`` is the
    mutable pair *message open*, *message start*).  A unit with select
    bit 0 is reported as ``(unit, end, start)``; one with bit 1 closes
    the message and is reported as ``(~unit, end, message start)``.
    """
    out: list[int] = []
    for event, start in pairs:
        if not carry[0]:
            carry[0] = 1
            carry[1] = start
        unit = unit_order[event.occurrence]
        bits = select[unit]
        if bits & 1:
            out += (unit, event.end, start)
        if bits & 2:
            out += (~unit, event.end, carry[1])
            carry[0] = 0
    return out


class _ScanState:
    """Mutable per-scan registers: the interned control state (shifted
    by 8 for memo keying), the stream position and the register file —
    one ``array('q')``: unit u's earliest starts from ``reg_ofs[u]``
    (one per position), then a length row."""

    __slots__ = ("tid8", "regs", "pos")

    def __init__(self, regs: array, tid8: int = 0, pos: int = 0) -> None:
        self.tid8, self.regs, self.pos = tid8, regs, pos

    def copy(self) -> "_ScanState":
        return _ScanState(self.regs[:], self.tid8, self.pos)


class CompiledTagger:
    """Table-driven tagger, bit-exact with the interpreted engine.

    Example
    -------
    >>> from repro.grammar.examples import if_then_else
    >>> tagger = CompiledTagger(if_then_else())
    >>> [str(t) for t in tagger.tag(b"if true then go else stop")]  # doctest: +ELLIPSIS
    [...]
    """

    def __init__(
        self,
        grammar: Grammar,
        options: TaggerOptions | None = None,
    ) -> None:
        self.grammar = grammar
        self.options = options or TaggerOptions()
        wiring = self.options.wiring
        self.plan = plan = build_scan_plan(grammar, wiring)
        self.units = plan.units
        self.accepting = plan.accepting
        self.tables = grammar.derived(
            ("tables", _wiring_key(wiring)), lambda: _CompiledTables(plan)
        )
        self._index_of = plan.index_of
        self._session: CompiledStream | None = None

    # ------------------------------------------------------------------
    def __reduce__(self):
        # Pickle as a compact rebuild spec — (grammar, options) — not
        # the materialized tables: the payload stays small and the
        # unpickling process rebuilds through the grammar's memo, so
        # every tagger shipped over one grammar pays one build.
        return (type(self), (self.grammar, self.options))

    # ------------------------------------------------------------------
    def index_of(self, unit) -> int:
        """Default (or-tree) encoder index for a unit."""
        return self._index_of[unit]

    def new_state(self) -> _ScanState:
        return _ScanState(self.tables.blank[:])

    # ------------------------------------------------------------------
    # one-shot API (mirrors BehavioralTagger)
    # ------------------------------------------------------------------
    def scan(
        self, data: bytes, error_sink: list[int] | None = None
    ) -> list[tuple[DetectEvent, int]]:
        """(event, earliest match start) pairs in stream order; §5.2
        error positions are appended to ``error_sink`` if given."""
        out: list[tuple[DetectEvent, int]] = []
        state = self.new_state()
        self._run(data, state, error_sink, out)
        self._flush(state, out)
        return out

    def events(self, data: bytes) -> list[DetectEvent]:
        """Raw detection events, bit-exact with the hardware detects."""
        return [event for event, _start in self.scan(data)]

    def events_and_errors(
        self, data: bytes
    ) -> tuple[list[DetectEvent], list[int]]:
        """Detection events plus §5.2 error positions."""
        if not self.tables.recovery:
            raise ValueError("tagger built without error_recovery")
        errors: list[int] = []
        return [event for event, _start in self.scan(data, errors)], errors

    def tag(self, data: bytes) -> list[TaggedToken]:
        """Tagged tokens with lexemes (earliest-start reconstruction)."""
        index_of = self._index_of
        of = TaggedToken.of
        return [
            of(unit, data[start:end], start, end, index_of[unit])
            for (unit, end), start in self.scan(data)
        ]

    # ------------------------------------------------------------------
    # streaming API
    # ------------------------------------------------------------------
    def stream(self) -> "CompiledStream":
        """A fresh independent streaming session."""
        return CompiledStream(self)

    def feed(self, chunk: bytes) -> list[DetectEvent]:
        """Feed one chunk into the tagger's default streaming session.

        Events are reported with absolute stream positions; a token
        ending on the chunk's final byte is reported by the next
        ``feed`` (or :meth:`finish`), once its look-ahead byte exists.
        """
        if self._session is None:
            self._session = self.stream()
        return self._session.feed(chunk)

    def finish(self) -> list[DetectEvent]:
        """Flush the default session and reset it for the next stream."""
        if self._session is None:
            return []
        events = self._session.finish()
        self._session = None
        return events

    # ------------------------------------------------------------------
    # the compiled per-byte loop
    # ------------------------------------------------------------------
    def _run(
        self,
        data: bytes,
        st: _ScanState,
        error_sink: list[int] | None,
        out: list[tuple[DetectEvent, int]],
        final: bool = False,
    ) -> None:
        """Scan ``data``, mutating ``st`` and appending results.

        Each step resolves the *previous* byte's detections (their
        look-ahead byte is now known); ``final`` resolves the last
        against end-of-data (:meth:`_flush`).
        """
        tables = self.tables
        memo = tables.memo
        memo_get = memo.get
        build_step = tables.build_step
        units = tables.units
        regs = st.regs
        append = out.append
        tid8 = st.tid8
        # Hoist every name the loop body touches out of global scope:
        # at ~10 bytecodes per quiet byte, LOAD_GLOBAL vs LOAD_FAST on
        # the event/start paths is a measurable slice of the loop.
        int_ = int
        DE = DetectEvent
        min_ = min
        for i, byte in enumerate(data, st.pos):
            step = memo_get(tid8 | byte)
            if step is None:
                step = build_step(tid8 >> 8, byte)
                if len(memo) < _MEMO_CAP:
                    memo[tid8 | byte] = step
            if step.__class__ is int_:
                tid8 = step
                continue
            tid8, events, start_ops, err = step
            if err and error_sink is not None:
                error_sink.append(i)
            if events:
                for u, q in events:
                    match_start = regs[q[0]]
                    for j in q[1:]:
                        value = regs[j]
                        if value < match_start:
                            match_start = value
                    append((DE(units[u], i), match_start))
            if start_ops:
                copies, sets, lengths = start_ops
                if copies:
                    # Every move reads the registers before any is set.
                    values = [min_([regs[j] for j in srcs]) for _, srcs in copies]
                    for (dst, _srcs), value in zip(copies, values):
                        regs[dst] = value
                for dst in sets:
                    regs[dst] = i
                for at, count in lengths:
                    regs[at] = count
        st.tid8 = tid8
        st.pos += len(data)
        if final:
            self._flush(st, out)

    def _run_packed(self, data, st: _ScanState, select, carry, final=False):
        """:meth:`_run` (then :meth:`_flush` if ``final``) through the
        packed sink: only the hits ``select`` picks, as flat ``unit,
        end, start`` ints (see :func:`pack_selected`).  Error positions
        are not reported."""
        out: list[tuple[DetectEvent, int]] = []
        self._run(data, st, None, out, final)
        return pack_selected(out, self.plan.unit_order, select, carry)

    def _flush(
        self, st: _ScanState, out: list[tuple[DetectEvent, int]]
    ) -> None:
        """Resolve the final byte's detections against end-of-data
        (reading the scan state, changing nothing in it)."""
        regs = st.regs
        for u, q in self.tables.eof_events(st.tid8 >> 8):
            start = min([regs[j] for j in q])
            out.append((DetectEvent(self.units[u], st.pos), start))

    def _watermark(self, st: _ScanState) -> int:
        """The earliest register a live unit holds, or the position."""
        ofs, regs = self.tables.reg_ofs, st.regs
        return min([st.pos] + [
            value
            for u, _s in self.tables.tstates[st.tid8 >> 8][0]
            for value in regs[ofs[u] : ofs[u] + regs[ofs[-1] + u]]
        ])


class CompiledStream(StreamSession):
    """One incremental scan over a chunked byte stream.

    ``feed`` accepts arbitrary chunk boundaries and returns the events
    (or ``(event, start)`` pairs via :meth:`feed_scan`) completed so
    far, with absolute stream positions; a token ending on a chunk's
    final byte is reported on the next call, once its Fig. 7
    look-ahead byte exists (:meth:`finish` resolves it against
    end-of-data). Error-recovery positions accumulate in
    :attr:`errors`.
    """

    def __init__(self, tagger: CompiledTagger) -> None:
        self.tagger = tagger
        self.state = tagger.new_state()
        self.errors: list[int] = []
        self._finished = False

    # ------------------------------------------------------------------
    def feed_scan(self, chunk: bytes, final=False) -> list[tuple[DetectEvent, int]]:
        """Feed a chunk; return completed (event, match start) pairs —
        with ``final``, end-of-data resolved in the same scan (the
        caller ends the stream)."""
        self._check_open()
        out: list[tuple[DetectEvent, int]] = []
        sink = self.errors if self.tagger.tables.recovery else None
        self.tagger._run(chunk, self.state, sink, out, final)
        return out

    def feed_packed(self, chunk: bytes, select: bytes, carry, final=False):
        """Feed a chunk through the packed sink: a flat int sequence
        of ``unit, end, start`` records for the hits ``select`` picks
        (one byte per plan unit; :func:`pack_selected` has the record
        rules), with ``carry`` — two mutable int64 slots the caller
        keeps per stream — threaded across chunks; ``final`` resolves
        end-of-data in the same scan (the caller ends the stream).  On
        the native engine no per-hit object is built."""
        self._check_open()
        return self.tagger._run_packed(chunk, self.state, select, carry, final)

    def finish_packed_snapshot(self, select: bytes, carry) -> list[int]:
        """What end-of-data would add to :meth:`feed_packed`'s records,
        evaluated on a snapshot like :meth:`finish_scan_snapshot`
        (``carry`` is updated: pass a copy to only observe)."""
        if self._finished:
            return []
        return self.feed_packed(b"", select, carry, True)

    def finish_scan(self, chunk: bytes = b"") -> list[tuple[DetectEvent, int]]:
        """Scan a last ``chunk`` and resolve the final byte against
        end-of-data, in one scan; end the stream."""
        out = self.feed_scan(chunk, True)
        self.close()
        return out

    def close(self) -> None:
        """End the stream without flushing (feeding afterwards raises)."""
        self._finished = True

    def feed(self, chunk: bytes) -> list[DetectEvent]:
        return [event for event, _start in self.feed_scan(chunk)]

    def finish(self) -> list[DetectEvent]:
        return self.finish_records()

    def finish_records(self, chunk: bytes = b"") -> list[DetectEvent]:
        return [event for event, _start in self.finish_scan(chunk)]

    # ------------------------------------------------------------------
    def low_watermark(self) -> int:
        """Earliest absolute position a future event can still start at.

        Callers buffering stream data for lexeme extraction may drop
        everything before this position.
        """
        return self.tagger._watermark(self.state)

    def finish_scan_snapshot(self) -> list[tuple[DetectEvent, int]]:
        """Like :meth:`finish_scan` but without consuming the stream:
        the flush runs on a snapshot, so feeding can continue
        afterwards. Used by back-ends that must report results
        mid-stream (e.g. per-flow inspection points)."""
        if self._finished:
            return []
        out: list[tuple[DetectEvent, int]] = []
        self.tagger._flush(self.state, out)
        return out
