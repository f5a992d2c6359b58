"""Vectorized wide-datapath scan engine.

The hardware reaches gigabit rates by widening the datapath: several
pre-decoded bytes are consumed per cycle through parallel tokenizer
pipelines (Figs. 6–7). This module is the software analogue, a third
engine layered on the compiled one (:mod:`repro.core.compiled`) and
reading the shared scan IR (:mod:`repro.core.scanir`), in two parts:

* **Wide stepping.** The per-byte loop is replaced by a per-*word*
  loop: each 8-byte window of the class-translated input is read as
  one little-endian ``uint64`` and resolved through a single dict
  lookup. A memoized window entry is either the bare next state (the
  overwhelmingly common all-quiet case — one dict hit now covers eight
  bytes, i.e. four of the paper's fused 2-byte stages) or a tiny
  *generated* program that replays the window's events, earliest-start
  moves and error positions with all offsets folded in at codegen
  time. Windows are built by walking the IR's ``next`` / ``effect``
  arrays over the window's eight class codes.

* **Dead-region skipping.** When the wide loop hits a window that held
  one of the IR's skip states on bare self-loops — regions of the
  input that can neither start nor extend any token, e.g. the §5.2
  dead state between an unrecoverable error and end-of-stream — it
  fast-forwards with ``bytes.translate`` + ``find`` (C memchr-speed
  prefilters over the state's inert/live byte row) to the next live
  byte instead of stepping.

The engine is bit-exact with the compiled one — same events, same
order, same error-recovery positions, same earliest-start lexemes —
enforced by the seeded differential suite in
``tests/core/test_vectorscan.py``. Without NumPy (or with
``REPRO_DISABLE_NUMPY=1``) it degrades gracefully to the compiled
engine; :func:`capability` reports which path is live.
"""

from __future__ import annotations

import importlib.util
import os
from collections import deque
from itertools import islice

from repro.core.compiled import CompiledTagger
from repro.core.scanir import ScanIR, closed_tables
from repro.core.scanplan import DetectEvent, _wiring_key

__all__ = [
    "NUMPY_AVAILABLE",
    "VectorTagger",
    "WIDTH",
    "capability",
]

#: Whether the vector engine can run at all in this process. Found,
#: not imported: NumPy loads when the wide loop first runs (a process
#: on another engine, native included, never pays for it).
NUMPY_AVAILABLE = (
    not os.environ.get("REPRO_DISABLE_NUMPY")
    and importlib.util.find_spec("numpy") is not None
)

#: Fused window width in bytes: one ``uint64`` of class codes per step.
WIDTH = 8

#: Caps mirroring ``compiled._MEMO_CAP``: past these, wide windows and
#: generated programs are computed without being cached.
_WIDE_MEMO_CAP = 1 << 17
_PROG_CACHE_CAP = 1 << 14

#: Wide-window memo sentinel: the window keeps the state on bare
#: self-loops, and the state's inert-byte prefilter may fast-forward.
_SKIP = object()


def capability() -> dict:
    """The vector engine's runtime capability flags (for ``/stats``)."""
    return {
        "numpy": NUMPY_AVAILABLE,
        "disabled_by_env": bool(os.environ.get("REPRO_DISABLE_NUMPY")),
        "width": WIDTH,
    }


# ----------------------------------------------------------------------
# Wide-window memo + codegen over the scan IR
# ----------------------------------------------------------------------
class _WideTables:
    """Wide-window memo and generated window programs over one scan
    IR, and the compiled tables it was closed on (whose state ids are
    the IR's: the per-byte loop steps them between windows); shared by
    every :class:`VectorTagger` over that (grammar, wiring) pair."""

    __slots__ = ("ir", "tables", "ns", "memo8", "_prog_cache")

    def __init__(self, ir: ScanIR, tables) -> None:
        self.ir = ir
        self.tables = tables
        #: every generated program's globals: its helpers, ``U<u>`` unit u
        self.ns = {"DE": DetectEvent, "min": min, "TN": tuple.__new__}
        self.ns.update((f"U{u}", unit) for u, unit in enumerate(tables.units))
        self.memo8: dict[int, object] = {}
        self._prog_cache: dict = {}

    # ------------------------------------------------------------------
    # wide-window codegen
    # ------------------------------------------------------------------
    @staticmethod
    def _gen_half(d, events, start_ops, err, lines) -> None:
        """Emit one effectful byte (offset ``d`` in the window) into a
        window program: error position, events (earliest-start min
        over literal register indices), start moves — every source
        read before any register is set."""
        i = "i" if d == 0 else f"i+{d}"

        def fold(registers) -> str:
            terms = ", ".join(f"regs[{j}]" for j in registers)
            return f"min({terms})" if len(registers) > 1 else terms

        if err:
            lines.append(f"    if errors is not None: errors.append({i})")
        for u, registers in events or ():
            lines.append(f"    append((TN(DE, (U{u}, {i})), {fold(registers)}))")
        if start_ops:
            copies, sets, lengths = start_ops
            lines += [f"    v{k} = {fold(srcs)}" for k, (_, srcs) in enumerate(copies)]
            lines += [f"    regs[{dst}] = v{k}" for k, (dst, _) in enumerate(copies)]
            lines += [f"    regs[{dst}] = {i}" for dst in sets]
            lines += [f"    regs[{at}] = {count}" for at, count in lengths]

    def _make_prog(self, halves, next_base: int):
        """Compile a window's effectful bytes into one function.

        ``exec`` cost is paid once per distinct program text; the
        generated function returns the window's pre-shifted next state
        as a compiled-in constant.
        """
        lines = ["def prog(i, regs, append, errors):"]
        for d, events, start_ops, err in halves:
            self._gen_half(d, events, start_ops, err, lines)
        lines.append(f"    return {next_base!r}")
        src = "\n".join(lines)
        prog = self._prog_cache.get(src)
        if prog is None:
            exec(src, self.ns)  # noqa: S102 - own codegen, no external input
            prog = self.ns["prog"]
            if len(self._prog_cache) < _PROG_CACHE_CAP:
                self._prog_cache[src] = prog
        return prog

    def build_window(self, key: int):
        """Materialize one wide-window memo entry.

        ``key`` packs ``state << 64 | window`` where ``window`` is the
        8 class codes as a little-endian ``uint64``. The entry is a
        bare ``next_state << 64`` int, the ``_SKIP`` sentinel, or a
        generated program returning that int.
        """
        ir = self.ir
        n_classes = ir.n_classes
        nxt = ir.next
        effect = ir.effect
        tid = sid = key >> 64
        window = key & 0xFFFFFFFFFFFFFFFF
        halves = []
        for d in range(8):
            edge = tid * n_classes + ((window >> (8 * d)) & 0xFF)
            if effect[edge]:
                halves.append((d, *ir.effects[effect[edge]]))
            tid = nxt[edge]
        if halves:
            entry: object = self._make_prog(halves, tid << 64)
        elif tid == sid and sid in ir.skip_live:
            entry = _SKIP
        else:
            entry = tid << 64
        if len(self.memo8) < _WIDE_MEMO_CAP:
            self.memo8[key] = entry
        return entry


def _wide_tables_for(tagger: CompiledTagger) -> _WideTables | None:
    """The shared wide tables over the tagger's scan IR, or None when
    the wide loop cannot run: no NumPy, or a product automaton too
    large to densify."""
    if not NUMPY_AVAILABLE:
        return None

    def build() -> _WideTables | None:
        tables, ir = closed_tables(tagger.plan)
        return None if ir is None else _WideTables(ir, tables)

    return tagger.grammar.derived(
        ("wide", _wiring_key(tagger.plan.wiring)), build
    )


# ----------------------------------------------------------------------
class VectorTagger(CompiledTagger):
    """Wide-datapath tagger: the compiled engine with its per-byte loop
    replaced by the 8-byte-window vector loop (plus dead-region
    skipping). Everything else — streaming sessions, end-of-data
    flush, pickling discipline — is inherited, which is what makes
    bit-exactness structural rather than re-proved per feature.

    Falls back to the compiled loop transparently when NumPy is absent
    or the grammar's product automaton resists densification;
    :attr:`vector_active` says which loop is live.

    Example
    -------
    >>> from repro.grammar.examples import if_then_else
    >>> tagger = VectorTagger(if_then_else())
    >>> [str(t) for t in tagger.tag(b"if true then go else stop")]  # doctest: +ELLIPSIS
    [...]
    """

    def __init__(self, grammar, options=None) -> None:
        super().__init__(grammar, options)
        self._vt = _wide_tables_for(self)
        if self._vt is not None:
            # Trailing bytes, end-of-data and the watermark run the
            # compiled loop on the IR's state ids.
            self.tables = self._vt.tables
        #: Skip-efficiency counters (bytes_skipped / bytes_scanned is
        #: the dead-region prefilter's hit rate).
        self.bytes_scanned = 0
        self.bytes_skipped = 0

    @property
    def vector_active(self) -> bool:
        return self._vt is not None

    # ------------------------------------------------------------------
    def _run(self, data, st, error_sink, out) -> None:
        vt = self._vt
        if vt is None:
            return super()._run(data, st, error_sink, out)
        n = len(data)
        self.bytes_scanned += n
        m = n >> 3
        if m:
            import numpy as _np  # here, not on import: NUMPY_AVAILABLE

            if data.__class__ is not bytes:
                data = bytes(data)  # translate() takes no memoryview
            cls = data.translate(vt.ir.class_table)
            regs = st.regs
            append = out.append
            pos = st.pos
            base = (st.tid8 >> 8) << 64
            memo_get = vt.memo8.get
            build_window = vt.build_window
            skip_live = vt.ir.skip_live
            int_ = int
            SKIP = _SKIP
            m8 = m << 3
            live_cache: dict[int, bytes] = {}
            windows = _np.frombuffer(cls, dtype="<u8", count=m).tolist()
            it = iter(windows)
            k = 0
            skipped = 0
            for window in it:
                entry = memo_get(base | window)
                if entry is None:
                    entry = build_window(base | window)
                if entry.__class__ is int_:
                    base = entry
                elif entry is SKIP:
                    # The window held a dead state on bare self-loops;
                    # fast-forward to the next live byte via the
                    # state's inert-byte prefilter (translate + find
                    # run at C speed over the raw bytes).
                    skipped += 8
                    sid = base >> 64
                    translated = live_cache.get(sid)
                    if translated is None:
                        translated = live_cache[sid] = data.translate(
                            skip_live[sid]
                        )
                    hit = translated.find(1, (k << 3) + 8, m8)
                    extra = (m if hit < 0 else hit >> 3) - k - 1
                    if extra > 0:
                        deque(islice(it, extra), maxlen=0)
                        skipped += extra << 3
                        k += extra
                else:
                    base = entry(pos + (k << 3), regs, append, error_sink)
                k += 1
            self.bytes_skipped += skipped
            st.tid8 = (base >> 64) << 8
            st.pos = pos + m8
            data = data[m8:]
        # Trailing bytes (n % 8) take the compiled per-byte loop, which
        # also resolves the final partial window before a chunk edge.
        if data:
            super()._run(data, st, error_sink, out)
