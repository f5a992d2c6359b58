"""Native scan engine: the scan IR stepped by a C inner loop.

The top of the engine ladder, native → compiled (the interpreted loop
is the reference semantics; the vector engine is a named engine, not a
rung).  The paper's datapath sustains line rate because the product
automaton is lowered into flat hardware tables; this module performs
the same lowering in software.  The shared scan IR
(:mod:`repro.core.scanir` — byte-equivalence classes, the
class-indexed ``next`` / ``effect`` arrays) is lowered into contiguous
arrays:

* ``step[state * C + class]``: ``next`` premultiplied by ``C`` with a
  2-bit tag (effectful / skippable) folded into the low bits, so the
  quiet path is two loads and a shift per byte;
* ``prog_idx`` + ``progs``: every effect (error position, events with
  earliest-start folds, start-register copies, sets and lengths)
  lowered op for op, its register indices as they are, to a tiny int32
  bytecode executed inside the C loop, plus a per-state end-of-data
  program (``eof_idx``, from the IR's ``eof``) and the low watermark's
  register reads (``live_idx``, from its ``live``);
* ``live_all``: raw-byte rows, one per distinct set of inert bytes (a
  byte is inert where its edge is a bare self-loop), each named by its
  state's skip edges' ``prog_idx``: the loop fast-forwards over inert
  runs in any state, eight bytes per test.

:func:`_nativescan.scan_chunk` then consumes an entire chunk — and, when
asked, end-of-data — in one call with the GIL released, reading and
writing the scan's register file (:class:`~repro.core.compiled._ScanState`)
in place and surfacing only the sparse effectful results (events, error
positions) to Python — bit-exact with the other engines, enforced by
the differential suite in ``tests/core/test_nativescan.py``.

The kernel builds on demand from the checked-in C source (see
:mod:`repro.core._native_build`); without a compiler, with
``REPRO_DISABLE_NATIVE=1``, or for automata that resist densification,
:class:`NativeTagger` degrades transparently to the compiled loop, its
base class.  :func:`capability` reports whether the kernel is live.
NumPy is *not* required: the IR is pure Python, so the native engine
stays available under ``REPRO_DISABLE_NUMPY=1``.
"""

from __future__ import annotations

from array import array
from itertools import accumulate

from repro.core import _native_build
from repro.core.compiled import CompiledTagger
from repro.core.scanir import ScanIR, scan_ir_for
from repro.core.scanplan import DetectEvent, _wiring_key
from repro.core.tokens import TaggedToken

__all__ = ["NativeTagger", "capability"]

#: Effect-program opcodes (mirrored by the C interpreter).
_OP_END = 0
_OP_ERR = 1
_OP_EVENT = 2
_OP_COPY = 3
_OP_SET = 4
_OP_LEN = 5


def capability(probe: bool = False) -> dict:
    """The native engine's runtime capability flags (for ``/stats``).

    With ``probe=False`` (the default) this never invokes the C
    compiler — ``native`` then reports whether a kernel is *already*
    loaded or prebuilt. Pass ``probe=True`` to attempt (and cache) a
    just-in-time build.
    """
    ext = _native_build.load_kernel(probe=probe)
    return {
        "native": ext is not None,
        "disabled_by_env": _native_build._disabled(),
        "compiler": _native_build.compiler_available(),
        "source": _native_build.kernel_source(),
    }


# ----------------------------------------------------------------------
# Lowering the scan IR to flat C tables
# ----------------------------------------------------------------------
class _NativeTables:
    """Flat native tables for one scan IR, interned in a validated
    capsule owned by the C module; shared by every
    :class:`NativeTagger` over that (grammar, wiring) pair."""

    __slots__ = ("ext", "capsule", "sink_records")

    def __init__(self, ext, ir: ScanIR, tagger) -> None:
        plan = tagger.plan
        n_states, n_classes = ir.n_states, ir.n_classes

        # One program per distinct effect (end-of-data's among them) or
        # live-unit list; offset 0 is the empty one.
        progs = array("i", [_OP_END])
        offsets = {(): 0}

        def lower(events, start_ops=None, err=False) -> int:
            code = [_OP_ERR] if err else []
            for u, registers in events or ():
                code += (_OP_EVENT, u, len(registers), *registers)
            copies, sets, lengths = start_ops or ((), (), ())
            if copies:
                code += (_OP_COPY, len(copies))
                for dst, srcs in copies:
                    code += (dst, len(srcs), *srcs)
            if sets:
                code += (_OP_SET, len(sets), *sets)
            if lengths:
                code += (_OP_LEN, len(lengths), *sum(lengths, ()))
            key = tuple(code)
            if key not in offsets:
                offsets[key] = len(progs)
                progs.extend(key + (_OP_END,))
            return offsets[key]

        prog_of = [0] + [lower(*effect) for effect in ir.effects[1:]]
        # Per state: the detections end-of-data resolves (what the
        # compiled flush does), and one event per unit live there (never
        # run: the low watermark reads their registers).
        eof_idx = array("i", map(prog_of.__getitem__, ir.eof))
        ofs = tuple(accumulate(ir.unit_caps, initial=0))
        live_idx = array("i", [
            lower(tuple((u, (ofs[u],)) for u in units)) for units in ir.live
        ])
        # What one program can emit into the spill buffer.
        most = max([1] + [bool(err) + len(ev or ()) for ev, _, err in ir.effects[1:]])

        # Each edge: next premultiplied, tagged effectful or not, and its
        # program.  Then each bare self-loop is tagged skippable, its
        # prog_idx naming its state's raw-byte row of inert bytes (0 where
        # the edge is a bare self-loop), one row per distinct pattern.
        step = array("i", [n * n_classes << 2 | (i > 0) for n, i in zip(ir.next, ir.effect)])
        prog_idx = array("i", map(prog_of.__getitem__, ir.effect))
        rows: dict = {}
        for tid in range(n_states):
            at = tid * n_classes
            nxt, eff = ir.next[at : at + n_classes], ir.effect[at : at + n_classes]
            live = bytes([n != tid or i > 0 for n, i in zip(nxt, eff)]) if tid in nxt else b""
            if 0 in live:
                row = rows.setdefault(ir.class_table.translate(live.ljust(256, b"\1")), len(rows))
                for k in [k for k, busy in enumerate(live) if not busy]:
                    step[at + k] |= 2
                    prog_idx[at + k] = row

        self.ext = ext
        #: A packed sink's record count: 256 ``(unit, end, start)``
        #: int64 records, or room for two edges' and end-of-data's if
        #: that is more.  The kernel hands control back when it fills,
        #: so the size bounds memory, not the input.
        self.sink_records = max(256, 4 * most)
        self.capsule = ext.build_tables(
            n_states, n_classes, len(plan.units), ir.class_table, step,
            prog_idx, progs, b"".join(rows), array("i", ir.unit_caps),
            # What every hit of a unit shares: (token name, unit,
            # encoder index).
            tuple(
                (unit.terminal.name, unit, plan.index_of[unit])
                for unit in plan.units
            ),
            DetectEvent, TaggedToken, most, eof_idx, live_idx,
        )


def _native_tables_for(tagger) -> _NativeTables | None:
    """The native tables over the tagger's scan IR, or None when the
    kernel is unavailable or the automaton resists densification."""
    ext = _native_build.load_kernel()
    if ext is None:
        return None

    def lower() -> _NativeTables | None:
        ir = scan_ir_for(tagger)
        if ir is None:
            return None
        try:  # (an int that is not int32 fails the size checks)
            return _NativeTables(ext, ir, tagger)
        except (ValueError, MemoryError, OverflowError):
            return None

    return tagger.grammar.derived(
        ("native", _wiring_key(tagger.plan.wiring)), lower
    )


# ----------------------------------------------------------------------
class NativeTagger(CompiledTagger):
    """Native-loop tagger: the compiled engine with its per-byte loop,
    end-of-data flush and low watermark each one C call; streaming
    sessions, the register file and pickling are inherited, which keeps
    bit-exactness structural.  Falls back transparently to the compiled
    loop when the kernel or the dense tables are missing;
    :attr:`native_active` says which loop is live.

    Example
    -------
    >>> from repro.grammar.examples import if_then_else
    >>> tagger = NativeTagger(if_then_else())
    >>> [str(t) for t in tagger.tag(b"if true then go else stop")]  # doctest: +ELLIPSIS
    [...]
    """

    def __init__(self, grammar, options=None) -> None:
        super().__init__(grammar, options)
        self._nt = _native_tables_for(self)
        #: Skip-efficiency counters (bytes_skipped / bytes_scanned is
        #: the inert-run fast-forward's hit rate).
        self.bytes_scanned = 0
        self.bytes_skipped = 0

    @property
    def native_active(self) -> bool:
        return self._nt is not None

    # ------------------------------------------------------------------
    def _oneshot(self, data, mode: int) -> list:
        """All of ``data`` and end-of-data in one kernel call, from the
        start state on a fresh register file."""
        nt = self._nt
        out: list = []
        _state, skipped = nt.ext.scan_chunk(
            nt.capsule, 0, 0, data, self.tables.blank[:], out, None, mode,
            None, None, True,
        )
        self.bytes_scanned += len(data)
        self.bytes_skipped += skipped
        return out

    def events(self, data):
        """Raw detection events, bit-exact with the other engines:
        one kernel call appends bare :class:`DetectEvent` objects,
        end-of-data's included."""
        if self._nt is None:
            return super().events(data)
        return self._oneshot(data, 0)

    def tag(self, data):
        """Tagged tokens, field for field the other engines': one
        kernel call builds each finished :class:`~repro.core.tokens.TaggedToken`,
        lexeme and end-of-data tail included, with no per-token Python."""
        if self._nt is None:
            return super().tag(data)
        return self._oneshot(data, 2)

    def _run(self, data, st, error_sink, out, final=False) -> None:
        """One kernel call over ``data`` from scan state ``st``, ``(event,
        match start)`` pairs drained into ``out``; ``final`` also resolves
        end-of-data, which changes no register."""
        nt = self._nt
        if nt is None:
            return super()._run(data, st, error_sink, out)
        self.bytes_scanned += len(data)
        state, skipped = nt.ext.scan_chunk(
            nt.capsule, st.tid8 >> 8, st.pos, data, st.regs, out,
            error_sink, 1, None, None, final,
        )
        self.bytes_skipped += skipped
        st.tid8 = state << 8
        st.pos += len(data)

    def _flush(self, st, out) -> None:
        if self._nt is None:
            return super()._flush(st, out)
        self._run(b"", st, None, out, True)

    def _watermark(self, st) -> int:
        nt = self._nt
        if nt is None:
            return super()._watermark(st)
        return nt.ext.low_watermark(nt.capsule, st.tid8 >> 8, st.pos, st.regs)

    def _run_packed(self, data, st, select, carry, final=False):
        nt = self._nt
        if nt is None:
            return super()._run_packed(data, st, select, carry, final)
        self.bytes_scanned += len(data)
        if st.sink is None:
            st.sink = array("q", bytes(24 * nt.sink_records))
        records = None
        while True:
            state, skipped, n_records, consumed = nt.ext.scan_chunk(
                nt.capsule, st.tid8 >> 8, st.pos, data, st.regs, st.sink,
                None, True, select, carry, final,
            )
            self.bytes_skipped += skipped
            st.tid8 = state << 8
            st.pos += consumed
            found = st.sink[: 3 * n_records]
            records = found if records is None else records + found
            if consumed == len(data):
                return records
            # The sink filled up: resume behind the last byte taken.
            data = memoryview(data)[consumed:]
