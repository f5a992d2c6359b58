"""Native scan engine: the scan IR stepped by a C inner loop.

The top of the engine ladder, native → compiled (the interpreted loop
is the reference semantics; the vector engine is a named engine, not a
rung).  The paper's datapath sustains line rate because the product
automaton is lowered into flat hardware tables; this module performs
the same lowering in software.  The shared scan IR
(:mod:`repro.core.scanir` — byte-equivalence classes, the
class-indexed ``next`` / ``effect`` arrays, dead-region inert rows) is
lowered into four contiguous arrays:

* ``step[state * C + class]``: ``next`` premultiplied by ``C`` with a
  2-bit tag (effectful / skippable) folded into the low bits, so the
  quiet path is two loads and a shift per byte;
* ``prog_idx`` + ``progs``: every effect's replay program (error
  position, events with earliest-start folds, start-register moves)
  lowered to a tiny int32 bytecode executed inside the C loop;
* ``skip_ofs`` + ``live_all``: the IR's per-dead-state raw-byte rows,
  concatenated, which the loop uses to fast-forward over inert regions
  memchr-style.

:func:`_nativescan.scan_chunk` then consumes an entire chunk in one
call with the GIL released, surfacing only the sparse effectful
results (events, error positions) back to Python — bit-exact with the
other engines, enforced by the differential suite in
``tests/core/test_nativescan.py``.

The kernel builds on demand from the checked-in C source (see
:mod:`repro.core._native_build`); without a compiler, with
``REPRO_DISABLE_NATIVE=1``, or for automata that resist densification,
:class:`NativeTagger` degrades transparently to the compiled loop, its
base class.  :func:`capability` reports whether the kernel is live.
NumPy is *not* required: the IR is pure Python, so the native engine
stays available under ``REPRO_DISABLE_NUMPY=1``.
"""

from __future__ import annotations

import os
from array import array
from weakref import WeakKeyDictionary

from repro.core import _native_build
from repro.core.compiled import CompiledTagger
from repro.core.scanir import ScanIR, scan_ir_for
from repro.core.scanplan import DetectEvent
from repro.core.tokens import TaggedToken

__all__ = ["NativeTagger", "capability"]

#: Effect-program opcodes (mirrored by the C interpreter).
_OP_END = 0
_OP_ERR = 1
_OP_EVENT = 2
_OP_STARTS = 3


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
        "disabled_by_env": bool(os.environ.get("REPRO_DISABLE_NATIVE")),
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

    __slots__ = ("ext", "capsule", "empty_sink")

    def __init__(self, ext, ir: ScanIR, plan) -> None:
        n_states = ir.n_states
        n_classes = ir.n_classes

        # Dead-state prefilters: the IR's raw-byte rows, concatenated,
        # so the C loop tests input bytes directly.
        skip_ofs = array("i", [-1]) * n_states
        for row, tid in enumerate(ir.skip_live):
            skip_ofs[tid] = row
        live_all = b"".join(ir.skip_live.values())

        # One program per distinct effect; offset 0 is the empty one.
        progs = array("i", [_OP_END])
        offsets = [0]
        max_per_edge = 1
        for events, start_ops, err in ir.effects[1:]:
            offsets.append(len(progs))
            code = [_OP_ERR] if err else []
            for u, q in events or ():
                code += (_OP_EVENT, u, len(q))
                code += q
            for u, moves in start_ops or ():
                code += (_OP_STARTS, u, len(moves))
                for srcs in moves:
                    code.append(len(srcs))
                    code += srcs
            code.append(_OP_END)
            progs.extend(code)
            max_per_edge = max(max_per_edge, bool(err) + len(events or ()))

        step = array("i")
        prog_idx = array("i")
        for edge, (ntid, index) in enumerate(zip(ir.next, ir.effect)):
            if index:
                tag = 1
            else:
                tid = edge // n_classes
                tag = 2 if ntid == tid and skip_ofs[tid] >= 0 else 0
            step.append((ntid * n_classes) << 2 | tag)
            prog_idx.append(offsets[index])

        self.ext = ext
        #: A zeroed packed-sink record buffer, copied per call: 256
        #: ``(unit, end, start)`` int64 records, or the two per hit one
        #: edge can write if that is more.  The kernel hands control
        #: back when it fills, so the size bounds memory, not the input.
        self.empty_sink = bytes(max(256, 2 * max_per_edge) * 3 * 8)
        self.capsule = ext.build_tables(
            n_states,
            n_classes,
            len(plan.units),
            ir.class_table,
            step,
            prog_idx,
            progs,
            skip_ofs,
            live_all,
            array("i", ir.unit_caps),
            # What every hit of a unit shares: (token name, unit,
            # encoder index).
            tuple(
                (unit.terminal.name, unit, plan.index_of[unit])
                for unit in plan.units
            ),
            DetectEvent,
            TaggedToken,
            max_per_edge,
        )


#: ScanIR -> its native tables, or _UNBUILDABLE.
_NATIVE_CACHE: WeakKeyDictionary = WeakKeyDictionary()
_UNBUILDABLE = object()


def _native_tables_for(tagger) -> _NativeTables | None:
    """The native tables over the tagger's scan IR, or None when the
    kernel is unavailable or the automaton resists densification."""
    ext = _native_build.load_kernel()
    if ext is None:
        return None
    ir = scan_ir_for(tagger)
    if ir is None:
        return None
    nt = _NATIVE_CACHE.get(ir)
    if nt is None:
        if array("i").itemsize == 4:
            try:
                nt = _NativeTables(ext, ir, tagger.plan)
            except (ValueError, MemoryError, OverflowError):
                nt = _UNBUILDABLE
        else:  # pragma: no cover - exotic int width
            nt = _UNBUILDABLE
        _NATIVE_CACHE[ir] = nt
    return None if nt is _UNBUILDABLE else nt


# ----------------------------------------------------------------------
class NativeTagger(CompiledTagger):
    """Native-loop tagger: the compiled engine with its per-byte Python
    loop replaced by one C call per chunk. Streaming sessions,
    end-of-data flush and pickling discipline are inherited from the
    compiled engine, which keeps bit-exactness structural.

    Falls back transparently to the compiled loop when the kernel or
    the dense tables are missing; :attr:`native_active` says which
    loop is live.

    Example
    -------
    >>> from repro.grammar.examples import if_then_else
    >>> tagger = NativeTagger(if_then_else())
    >>> [str(t) for t in tagger.tag(b"if true then go else stop")]  # doctest: +ELLIPSIS
    [...]
    """

    def __init__(self, grammar, options=None, plan=None) -> None:
        super().__init__(grammar, options, plan)
        self._nt = _native_tables_for(self)
        #: Skip-efficiency counters (bytes_skipped / bytes_scanned is
        #: the dead-region fast-forward's hit rate).
        self.bytes_scanned = 0
        self.bytes_skipped = 0

    @property
    def native_active(self) -> bool:
        return self._nt is not None

    # ------------------------------------------------------------------
    def _kernel(self, data, st, out, error_sink, mode: int = 1) -> None:
        """One kernel call over ``data`` from scan state ``st``, hits
        drained into ``out`` as bare events (``mode`` 0), ``(event,
        match start)`` pairs (1) or finished tokens (2)."""
        nt = self._nt
        self.bytes_scanned += len(data)
        state, skipped = nt.ext.scan_chunk(
            nt.capsule, st.tid8 >> 8, st.pos, data, st.starts, out,
            error_sink, mode,
        )
        self.bytes_skipped += skipped
        st.tid8 = state << 8
        st.pos += len(data)

    def _drain(self, data, mode: int) -> tuple[list, list]:
        """The whole input in one kernel call, plus the end-of-data
        tail as the ``(event, match start)`` pairs ``_flush`` resolves."""
        st = self.new_state()
        out: list = []
        self._kernel(data, st, out, None, mode)
        tail: list = []
        self._flush(st, tail)
        return out, tail

    def events(self, data):
        """Raw detection events, bit-exact with the other engines.

        Native fast path: the kernel appends bare :class:`DetectEvent`
        objects, skipping the (event, match start) pairs ``scan()``
        carries and ``events()`` would immediately strip.
        """
        if self._nt is None:
            return super().events(data)
        out, tail = self._drain(data, 0)
        out += [event for event, _start in tail]
        return out

    def tag(self, data):
        """Tagged tokens, field for field the other engines'.

        Native fast path: the kernel builds each finished
        :class:`~repro.core.tokens.TaggedToken` — lexeme included — as
        it drains, so no per-token Python runs.
        """
        if self._nt is None:
            return super().tag(data)
        out, tail = self._drain(data, 2)
        out += self._tokens(data, tail)
        return out

    def _run(self, data, st, error_sink, out) -> None:
        if self._nt is None:
            return super()._run(data, st, error_sink, out)
        self._kernel(data, st, out, error_sink)

    def _run_packed(self, data, st, select, carry):
        nt = self._nt
        if nt is None:
            return super()._run_packed(data, st, select, carry)
        self.bytes_scanned += len(data)
        sink = array("q", nt.empty_sink)
        records = None
        while True:
            state, skipped, n_records, consumed = nt.ext.scan_chunk(
                nt.capsule,
                st.tid8 >> 8,
                st.pos,
                data,
                st.starts,
                sink,
                None,
                True,
                select,
                carry,
            )
            self.bytes_skipped += skipped
            st.tid8 = state << 8
            st.pos += consumed
            found = sink[: 3 * n_records]
            records = found if records is None else records + found
            if consumed == len(data):
                return records
            # The sink filled up: resume behind the last byte taken.
            data = memoryview(data)[consumed:]
