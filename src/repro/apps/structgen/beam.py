"""Batched beam decode: N mask cursors advanced as one call.

A realistic constrained-decoding loop carries a *beam* of candidate
continuations, and with :class:`~repro.apps.structgen.MaskSession`
each of the B lanes pays its own ``mask()``/``advance()`` round trip
per generated token.  :class:`BeamMaskSession` holds the N decode
states as a flat array and turns the per-step work into single
vectorized calls:

* ``masks()`` — every lane's packed validity row in one gather over
  the table's row matrix;
* ``advance(token_ids)`` — every lane stepped through the
  class-indexed step table at once, committed atomically (an invalid
  token in any lane leaves *all* lanes unmoved and raises);
* ``fork(i)`` — duplicate lane ``i`` (beam expansion);
* ``rollback(k)`` — undo the last ``k`` mutating calls across the
  whole beam (speculative decoding: propose k tokens, verify, rewind
  the rejected tail).

Two compute paths produce bit-identical results (the differential
suites in ``tests/apps/test_beam.py`` and
``tests/apps/test_beam_complete.py`` enforce it): a ctypes kernel
JIT-built from ``_beamscan.c`` via the ``_nativescan`` build
machinery, and a tight pure-Python loop (the portable path, what
``REPRO_DISABLE_NATIVE=1`` or a missing compiler selects).  A session
takes the kernel whenever it loads; there is nothing to choose.  Both
read the table's one row matrix
(:attr:`~repro.apps.structgen.masks.MaskTable.matrix`): CI eager, CD
completed once per state — ``masks_packed()`` first makes sure its
lanes' states are complete (a flag check per lane, and only on tables
that have CD tokens), then hands out rows; neither path looks at a
token.  On the kernel ``advance()`` is one ``beam_step`` call — range
check, atomic advance, gather — and ``masks_packed()`` returns the
rows that call gathered unless something moved the beam or completed
a row since.  The kernel steps the scan IR's ``next`` array in place —
the same object the scan engines and mask lowering read.

:func:`encode_lane_records` turns gathered rows into the MASKS wire
frame's lane records, delta-encoded against the rows last sent — in
the kernel when it is loaded, over :func:`xor_patch` otherwise.
"""

from __future__ import annotations

import ctypes
import os
import re
import struct
from array import array

from .masks import MaskError, MaskTable

__all__ = [
    "BeamMaskSession",
    "apply_xor_patch",
    "beam_capability",
    "encode_lane_records",
    "xor_patch",
]

_SOURCE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "_beamscan.c"
)

#: Bumped when the ``_beamscan.c`` calling contract changes.
_KERNEL_ABI = "3"

#: Mutating calls :meth:`BeamMaskSession.rollback` can undo.
_HISTORY_CAP = 1024

_kernel = None
_kernel_attempted = False


class _CPlan(ctypes.Structure):
    """Mirror of ``beam_plan`` in ``_beamscan.c`` — every per-table
    pointer marshalled once, so the per-step call passes five
    arguments instead of thirteen."""

    _fields_ = [
        ("step", ctypes.c_void_p),
        ("err", ctypes.c_char_p),
        ("doomed", ctypes.c_char_p),
        ("codes", ctypes.c_char_p),
        ("offs", ctypes.c_char_p),
        ("lens", ctypes.c_char_p),
        ("rows", ctypes.c_void_p),
        ("row_bytes", ctypes.c_int64),
        ("n_classes", ctypes.c_int32),
        ("n_vocab", ctypes.c_int32),
    ]


def _load_kernel():
    """The ctypes-loaded beam kernel, or None (no compiler, disabled,
    unwritable cache).  Cached per process like the scan kernel."""
    global _kernel, _kernel_attempted
    from repro.core import _native_build

    if _native_build._disabled():
        return None
    if _kernel is not None:
        return _kernel
    if _kernel_attempted:
        return None
    _kernel_attempted = True
    path = _native_build.jit_shared_library(_SOURCE, _KERNEL_ABI)
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    c = ctypes
    lib.beam_gather.restype = None
    lib.beam_gather.argtypes = [
        c.c_void_p,  # rows (the table's mutable matrix)
        c.c_int64,  # row_bytes
        c.POINTER(c.c_int32),  # states
        c.c_int32,  # n_lanes
        c.POINTER(c.c_ubyte),  # out
    ]
    lib.beam_step.restype = c.c_long
    lib.beam_step.argtypes = [
        c.POINTER(_CPlan),  # plan
        c.c_char_p,  # toks (native int32 bytes)
        c.POINTER(c.c_int32),  # prev states
        c.POINTER(c.c_int32),  # next states
        c.c_int32,  # n_lanes
        c.POINTER(c.c_ubyte),  # out rows
    ]
    lib.beam_encode_masks.restype = c.c_int64
    lib.beam_encode_masks.argtypes = [
        c.c_char_p,  # rows (lane-major, n_lanes * row_bytes)
        c.c_char_p,  # rows last sent (n_prev * row_bytes)
        c.c_int32,  # n_prev
        c.POINTER(c.c_int32),  # states
        c.c_int32,  # n_lanes
        c.c_int64,  # row_bytes
        c.c_char_p,  # out records
        c.POINTER(c.c_int32),  # out: delta lane count
    ]
    _kernel = lib
    return lib


_NONZERO = re.compile(rb"[^\x00]")


def _xor_rows(prev: bytes, new: bytes) -> bytes:
    """Bytewise XOR of two equal-length rows, as one big-int op."""
    return (
        int.from_bytes(prev, "big") ^ int.from_bytes(new, "big")
    ).to_bytes(len(new), "big")


def _patch_entries(diff: bytes) -> bytes:
    return b"".join(
        [
            m.start().to_bytes(2, "big") + m.group()
            for m in _NONZERO.finditer(diff)
        ]
    )


def xor_patch(prev: bytes, new: bytes) -> bytes:
    """Sparse XOR diff between two equal-length rows of at most 65 536
    bytes, as 3-byte entries (u16 BE byte index, u8 XOR value).  The
    MASKS wire frames ship this instead of the full row whenever it is
    strictly smaller.  The portable implementation: one big-int XOR,
    then a scan for the non-zero bytes."""
    return _patch_entries(_xor_rows(prev, new))


def apply_xor_patch(prev: bytes, patch: bytes) -> bytes:
    """Rebuild the new row from ``prev`` and an :func:`xor_patch`."""
    row = bytearray(prev)
    for i in range(0, len(patch), 3):
        row[patch[i] << 8 | patch[i + 1]] ^= patch[i + 2]
    return bytes(row)


_LANE_HEAD = struct.Struct("!IB")


def encode_lane_records(
    states, packed: bytes, prev: bytes, row_bytes: int
) -> tuple[bytes, int]:
    """The MASKS frame's lane records for ``packed`` (one gathered row
    per entry of ``states``, lane-major) and how many of them are
    deltas.  A lane is sent as an XOR patch against the row last sent
    for the same lane index (``prev``, packed the same way; shorter
    when the beam grew) iff that lane existed and the patch plus its
    u16 count is strictly smaller than the row — otherwise as the full
    row, which is also the resync escape.  Byte-identical to
    ``protocol.encode_masks`` over :func:`xor_patch`, kernel or not.
    ``row_bytes`` must fit the frame's u16 (the server refuses wider
    tables at OPEN_BEAM)."""
    w = len(states)
    if len(packed) != w * row_bytes or not 0 < row_bytes <= 0xFFFF:
        raise MaskError(
            f"{len(packed)} packed bytes for {w} lanes of "
            f"{row_bytes}-byte rows"
        )
    n_prev = min(len(prev) // row_bytes, w)
    lib = _load_kernel()
    if lib is not None:
        out = ctypes.create_string_buffer(
            w * (_LANE_HEAD.size + row_bytes)
        )
        deltas = ctypes.c_int32()
        size = lib.beam_encode_masks(
            packed,
            prev,
            n_prev,
            (ctypes.c_int32 * w)(*states),
            w,
            row_bytes,
            out,
            deltas,
        )
        return ctypes.string_at(out, size), deltas.value
    parts = []
    deltas = 0
    for lane, state in enumerate(states):
        row = packed[lane * row_bytes : (lane + 1) * row_bytes]
        if lane < n_prev:
            diff = _xor_rows(
                prev[lane * row_bytes : (lane + 1) * row_bytes], row
            )
            count = row_bytes - diff.count(0)
            if 3 * count + 2 < row_bytes:
                parts.append(_LANE_HEAD.pack(state, 1))
                parts.append(count.to_bytes(2, "big"))
                parts.append(_patch_entries(diff))
                deltas += 1
                continue
        parts.append(_LANE_HEAD.pack(state, 0))
        parts.append(row)
    return b"".join(parts), deltas


def beam_capability() -> dict:
    """Whether new beam sessions in this process run on the kernel
    (``/stats``).  Reads the handle as already loaded — the first
    session loads it — so a scrape never triggers a build."""
    from repro.core import _native_build

    return {"native": _kernel is not None and not _native_build._disabled()}


# ----------------------------------------------------------------------
# The kernel's per-table plan, shared across sessions via
# MaskTable._beam_cache (built once, read-only afterwards).
# ----------------------------------------------------------------------
class _NativeTables:
    __slots__ = ("lib", "step", "rows", "row_bytes", "plan", "planref")

    def __init__(self, table: MaskTable, lib) -> None:
        lowering = table.lowering
        ir = lowering.ir
        self.lib = lib
        # The IR's array itself, not a copy: the kernel steps the very
        # table the scan engines and the mask walks read.  (Held here
        # because the plan stores only its address.)
        self.step = (ctypes.c_int32 * len(ir.next)).from_buffer(ir.next)
        offs = array("i")
        lens = array("i")
        pos = 0
        for c in table.codes:
            offs.append(pos)
            lens.append(len(c))
            pos += len(c)
        # The kernel reads the table's matrix in place, so rows
        # completed after this plan was built are the rows it gathers.
        self.rows = (ctypes.c_ubyte * len(table.matrix)).from_buffer(
            table.matrix
        )
        self.row_bytes = table.row_bytes
        plan = _CPlan()
        plan.step = ctypes.addressof(self.step)
        plan.err = ir.lost
        plan.doomed = lowering.doomed
        plan.codes = b"".join(table.codes)
        plan.offs = offs.tobytes()
        plan.lens = lens.tobytes()
        plan.rows = ctypes.addressof(self.rows)
        plan.row_bytes = self.row_bytes
        plan.n_classes = ir.n_classes
        plan.n_vocab = len(table.codes)
        self.plan = plan
        self.planref = ctypes.byref(plan)


def _prepared(table: MaskTable) -> _NativeTables | None:
    """The kernel's plan for ``table``; None when no kernel loads."""
    lib = _load_kernel()
    if lib is None:
        return None
    if table._beam_cache is None:
        table._beam_cache = _NativeTables(table, lib)
    return table._beam_cache


# ----------------------------------------------------------------------
class BeamMaskSession:
    """N decode cursors over one shared :class:`MaskTable`, every
    operation a single batched call.

    The session runs on the kernel when it loads and on the portable
    Python loop otherwise; both are bit-identical to N independent
    :class:`~repro.apps.structgen.MaskSession`\\ s.
    """

    __slots__ = (
        "table",
        "counters",
        "_states",
        "_history",
        "_nt",
        "_nbuf",
        "_kept",
        "_metrics",
    )

    def __init__(
        self, table: MaskTable, width: int = 1, *, metrics=None
    ) -> None:
        if width < 1:
            raise MaskError("beam width must be >= 1")
        self.table = table
        self._states: list[int] = [0] * width
        self._history: list[tuple[int, ...]] = []
        self._nt = _prepared(table)
        self._nbuf = None
        #: ``table.memo_misses`` when the last kernel step gathered its
        #: rows, -1 once the beam moved any other way: the kept rows
        #: are current iff no row of the matrix was completed since.
        self._kept = -1
        self._metrics = metrics
        self.counters = {
            "masks_served": 0,
            "ci_tokens": 0,
            "cd_checks": 0,
            "advances": 0,
            "forks": 0,
            "rollbacks": 0,
        }

    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        return len(self._states)

    @property
    def states(self) -> tuple[int, ...]:
        return tuple(self._states)

    def eos_valid(self) -> list[bool]:
        return [self.table.eos_valid(s) for s in self._states]

    # ------------------------------------------------------------------
    # masks
    # ------------------------------------------------------------------
    def masks(self) -> list[bytes]:
        """Every lane's packed validity row, one batched call."""
        packed = self.masks_packed()
        rb = self.table.row_bytes
        return [
            packed[i * rb : (i + 1) * rb]
            for i in range(len(self._states))
        ]

    def masks_packed(self) -> bytes:
        """All lanes' rows as one lane-major buffer (the wire shape).
        Straight after a kernel :meth:`advance` these are the rows that
        step gathered; a fork, rollback, reset or a row completed since
        (a CD state's first visit) gathers afresh."""
        table = self.table
        if table.cd_ids:
            table.complete_rows(self._states)
        if self._kept == table.memo_misses:
            rows = bytes(self._nbuf[3])
        else:
            rows = self._gather()
        w = len(self._states)
        counters = self.counters
        counters["masks_served"] += w
        counters["ci_tokens"] += table.ci_count * w
        counters["cd_checks"] += len(table.cd_ids) * w
        metrics = self._metrics
        if metrics is not None:
            metrics.counter("structgen.masks_served").inc(w)
            metrics.counter("structgen.ci_tokens").inc(
                table.ci_count * w
            )
            metrics.counter("structgen.cd_checks").inc(
                len(table.cd_ids) * w
            )
        return rows

    def _gather(self) -> bytes:
        """Copy every lane's row out of the matrix; the lanes' states
        are already complete."""
        states = self._states
        nt = self._nt
        if nt is not None:
            w = len(states)
            out = bytearray(w * nt.row_bytes)
            nt.lib.beam_gather(
                nt.rows,
                nt.row_bytes,
                (ctypes.c_int32 * w)(*states),
                w,
                (ctypes.c_ubyte * len(out)).from_buffer(out),
            )
            return bytes(out)
        rb = self.table.row_bytes
        matrix = memoryview(self.table.matrix)
        return b"".join([matrix[s * rb : (s + 1) * rb] for s in states])

    # ------------------------------------------------------------------
    # advance / fork / rollback
    # ------------------------------------------------------------------
    def advance(self, token_ids) -> tuple[int, ...]:
        """Step every lane by its token, atomically: an invalid token
        in any lane raises :class:`MaskError` naming the first such
        lane, and no lane moves."""
        toks = (
            token_ids
            if type(token_ids) in (list, tuple)
            else list(token_ids)
        )
        if len(toks) != len(self._states):
            raise MaskError(
                f"advance() got {len(toks)} token ids for "
                f"{len(self._states)} lanes"
            )
        if self._nt is not None:
            new = self._step_native(toks)
        else:
            new = self._advance_python(toks)
        self._push_history()
        self._states = new
        self.counters["advances"] += len(new)
        if self._metrics is not None:
            self._metrics.counter("structgen.advances").inc(len(new))
        return tuple(new)

    def _step_native(self, toks) -> tuple[int, ...]:
        """One ``beam_step``: range check, advance into the shadow
        state array, gather the new rows into the kept buffer."""
        nt = self._nt
        w = len(toks)
        buf = self._nbuf
        if buf is None or buf[0] != w:
            out = bytearray(w * nt.row_bytes)
            buf = self._nbuf = (
                w,
                (ctypes.c_int32 * w)(),
                (ctypes.c_int32 * w)(),
                out,
                (ctypes.c_ubyte * len(out)).from_buffer(out),
                struct.Struct(f"{w}i"),
            )
            self._kept = -1
        _, prev, nxt, outb, outv, lanes = buf
        if self._kept < 0:
            prev[:] = self._states
        try:
            packed = lanes.pack(*toks)
        except struct.error:
            # An id no int32 holds (the wire's are u32): the kernel
            # gets -1 in its place and refuses that lane in order,
            # like any other out-of-range id.
            packed = lanes.pack(
                *[t if 0 <= t < 1 << 31 else -1 for t in toks]
            )
        ret = nt.lib.beam_step(nt.planref, packed, prev, nxt, w, outv)
        if ret >= 0:
            self._fail(int(ret), toks)
        # Swap prev/next so the committed states stay resident for
        # the next step without a resync copy.
        self._nbuf = (w, nxt, prev, outb, outv, lanes)
        self._kept = self.table.memo_misses
        return lanes.unpack(nxt)

    def _fail(self, lane: int, toks) -> None:
        tok = toks[lane]
        vocab_size = len(self.table.vocab)
        if not 0 <= tok < vocab_size:
            raise MaskError(
                f"lane {lane}: token id {tok} out of range "
                f"(vocabulary has {vocab_size} tokens)"
            )
        raise MaskError(
            f"lane {lane}: token {tok} is not valid in "
            f"state {self._states[lane]}"
        )

    def _advance_python(self, toks) -> list[int]:
        table = self.table
        new = []
        for lane, (s, tok) in enumerate(zip(self._states, toks)):
            try:
                new.append(table.advance_state(s, tok))
            except MaskError:
                self._fail(lane, toks)
        return new

    def fork(self, lane: int) -> int:
        """Duplicate lane ``lane``; returns the new lane's index."""
        states = self._states
        if not 0 <= lane < len(states):
            raise MaskError(
                f"fork lane {lane} out of range (beam width "
                f"{len(states)})"
            )
        self._push_history()
        self._states = [*states, states[lane]]
        self._kept = -1
        self.counters["forks"] += 1
        return len(states)

    def rollback(self, k: int = 1) -> tuple[int, ...]:
        """Undo the last ``k`` mutating calls (advance or fork) across
        the whole beam — including width changes from forks."""
        history = self._history
        if k < 1 or k > len(history):
            raise MaskError(
                f"cannot roll back {k} step(s); history holds "
                f"{len(history)}"
            )
        for _ in range(k):
            snapshot = history.pop()
        self._states = list(snapshot)
        self._kept = -1
        self.counters["rollbacks"] += 1
        return tuple(self._states)

    def _push_history(self) -> None:
        history = self._history
        history.append(tuple(self._states))
        if len(history) > _HISTORY_CAP:
            del history[0]

    def reset(self, width: int | None = None) -> None:
        if width is None:
            width = len(self._states)
        if width < 1:
            raise MaskError("beam width must be >= 1")
        self._states = [0] * width
        self._history = []
        self._kept = -1
