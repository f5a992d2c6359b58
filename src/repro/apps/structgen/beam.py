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
``REPRO_DISABLE_NATIVE=1`` or a missing compiler selects).  Both read
the table's one row matrix
(:attr:`~repro.apps.structgen.masks.MaskTable.matrix`): CI eager, CD
completed once per state — a gather first makes sure its lanes'
states are complete (a flag check per lane, and only on tables that
have CD tokens), then copies rows; neither path looks at a token.
The kernel steps the scan IR's ``next`` array in place — the same
object the scan engines and mask lowering read.

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
_KERNEL_ABI = "2"

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
    lib.beam_advance.restype = c.c_long
    lib.beam_advance.argtypes = [
        c.c_void_p,  # step table (the scan IR's int32 next array)
        c.c_int32,  # n_classes
        c.c_char_p,  # err (u8 per state)
        c.c_char_p,  # doomed (u8 per state)
        c.c_char_p,  # codes blob
        c.c_char_p,  # offs (native int32 bytes)
        c.c_char_p,  # lens (native int32 bytes)
        c.c_char_p,  # toks (native int32 bytes)
        c.POINTER(c.c_int32),  # states (in/out scratch)
        c.c_int32,  # n_lanes
    ]
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
    """Which beam compute paths are live (``/stats``, CLI)."""
    return {"native": _load_kernel() is not None}


# ----------------------------------------------------------------------
# The kernel's per-table plan, shared across sessions via
# MaskTable._beam_cache (built once, read-only afterwards).
# ----------------------------------------------------------------------
class _NativeTables:
    __slots__ = (
        "lib", "step", "n_classes", "err", "doomed",
        "codes", "offs", "lens", "rows", "row_bytes",
        "plan", "planref",
    )

    def __init__(self, table: MaskTable, lib) -> None:
        lowering = table.lowering
        ir = lowering.ir
        self.lib = lib
        self.n_classes = ir.n_classes
        # The IR's array itself, not a copy: the kernel steps the very
        # table the scan engines and the mask walks read.
        self.step = (ctypes.c_int32 * len(ir.next)).from_buffer(ir.next)
        self.err = ir.lost
        self.doomed = lowering.doomed
        offs = array("i")
        lens = array("i")
        pos = 0
        for c in table.codes:
            offs.append(pos)
            lens.append(len(c))
            pos += len(c)
        self.codes = b"".join(table.codes)
        self.offs = offs.tobytes()
        self.lens = lens.tobytes()
        # The kernel reads the table's matrix in place, so rows
        # completed after this plan was built are the rows it gathers.
        self.rows = (ctypes.c_ubyte * len(table.matrix)).from_buffer(
            table.matrix
        )
        self.row_bytes = table.row_bytes
        plan = _CPlan()
        plan.step = ctypes.addressof(self.step)
        plan.err = self.err
        plan.doomed = self.doomed
        plan.codes = self.codes
        plan.offs = self.offs
        plan.lens = self.lens
        plan.rows = ctypes.addressof(self.rows)
        plan.row_bytes = self.row_bytes
        plan.n_classes = self.n_classes
        plan.n_vocab = len(table.codes)
        self.plan = plan
        self.planref = ctypes.byref(plan)


def _prepared(table: MaskTable) -> _NativeTables:
    if table._beam_cache is None:
        table._beam_cache = _NativeTables(table, _load_kernel())
    return table._beam_cache


# ----------------------------------------------------------------------
class BeamMaskSession:
    """N decode cursors over one shared :class:`MaskTable`, every
    operation a single batched call.

    ``path`` selects the compute path: ``"auto"`` takes the kernel
    when it is loaded and the portable Python loop otherwise; forcing
    ``"native"`` raises :class:`MaskError` when the kernel is
    unavailable.  Both paths are bit-identical to N independent
    :class:`~repro.apps.structgen.MaskSession`\\ s.
    """

    __slots__ = (
        "table",
        "path",
        "counters",
        "history_cap",
        "_states",
        "_history",
        "_nt",
        "_nbuf",
        "_nsync",
        "_metrics",
    )

    def __init__(
        self,
        table: MaskTable,
        width: int = 1,
        *,
        metrics=None,
        path: str = "auto",
        history_cap: int = 1024,
    ) -> None:
        if width < 1:
            raise MaskError("beam width must be >= 1")
        if path == "auto":
            path = "native" if _load_kernel() is not None else "python"
        elif path == "native":
            if _load_kernel() is None:
                raise MaskError("native beam kernel unavailable")
        elif path != "python":
            raise MaskError(f"unknown beam path {path!r}")
        self.table = table
        self.path = path
        self.history_cap = history_cap
        self._states: list[int] = [0] * width
        self._history: list[tuple[int, ...]] = []
        self._nt = _prepared(table) if path == "native" else None
        self._nbuf = None
        self._nsync = False
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
        """All lanes' rows as one lane-major buffer (the wire shape)."""
        rows = self._gather_packed()
        self._count_masks()
        return rows

    def _count_masks(self) -> None:
        table = self.table
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

    def _gather_packed(self) -> bytes:
        table = self.table
        if table.cd_ids:
            table.complete_rows(self._states)
        return self._gather_raw()

    def _gather_raw(self) -> bytes:
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
        in any lane raises :class:`MaskError` naming the lane, and no
        lane moves."""
        states = self._states
        toks = list(token_ids)
        if len(toks) != len(states):
            raise MaskError(
                f"advance() got {len(toks)} token ids for "
                f"{len(states)} lanes"
            )
        vocab_size = len(self.table.vocab)
        for lane, tok in enumerate(toks):
            if not 0 <= tok < vocab_size:
                raise MaskError(
                    f"lane {lane}: token id {tok} out of range "
                    f"(vocabulary has {vocab_size} tokens)"
                )
        if self._nt is not None:
            new = self._advance_native(toks)
        else:
            new = self._advance_python(toks)
        self._push_history()
        self._states = new
        self._nsync = False
        self.counters["advances"] += len(new)
        if self._metrics is not None:
            self._metrics.counter("structgen.advances").inc(len(new))
        return tuple(new)

    def advance_masks(self, token_ids) -> tuple[tuple[int, ...], bytes]:
        """The fused decode step: advance every lane and return
        ``(new_states, packed_rows)`` in one engine transition — what
        a BATCH_ADVANCE wire frame costs server-side.  Same atomic
        failure contract as :meth:`advance`."""
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
        packed = None
        if self._nt is not None:
            new, packed = self._step_native(toks)
        else:
            new = self._advance_python(toks)
        self._push_history()
        self._states = new
        self.counters["advances"] += len(new)
        if self._metrics is not None:
            self._metrics.counter("structgen.advances").inc(len(new))
        if packed is None:
            packed = self._gather_packed()
        elif self.table.cd_ids and self.table.complete_rows(new):
            # The kernel gathered a row before its first completion.
            packed = self._gather_raw()
        self._count_masks()
        return tuple(new), packed

    def _step_native(self, toks) -> tuple[tuple[int, ...], bytes]:
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
            self._nsync = False
        _, prev, nxt, outb, outv, lanes = buf
        if not self._nsync:
            prev[:] = self._states
        ret = nt.lib.beam_step(
            nt.planref, lanes.pack(*toks), prev, nxt, w, outv
        )
        if ret >= 0:
            self._fail(int(ret), toks)
        # Swap prev/next so the committed states stay resident for
        # the next step without a resync copy.
        self._nbuf = (w, nxt, prev, outb, outv, lanes)
        self._nsync = True
        return lanes.unpack(nxt), bytes(outb)

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

    def _advance_native(self, toks) -> list[int]:
        nt = self._nt
        w = len(toks)
        scratch = (ctypes.c_int32 * w)(*self._states)
        ret = nt.lib.beam_advance(
            nt.step,
            nt.n_classes,
            nt.err,
            nt.doomed,
            nt.codes,
            nt.offs,
            nt.lens,
            array("i", toks).tobytes(),
            scratch,
            w,
        )
        if ret >= 0:
            self._fail(int(ret), toks)
        return list(scratch)

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
        self._nsync = False
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
        self._nsync = False
        self.counters["rollbacks"] += 1
        return tuple(self._states)

    def _push_history(self) -> None:
        history = self._history
        history.append(tuple(self._states))
        if len(history) > self.history_cap:
            del history[0]

    def reset(self, width: int | None = None) -> None:
        if width is None:
            width = len(self._states)
        if width < 1:
            raise MaskError("beam width must be >= 1")
        self._states = [0] * width
        self._history = []
        self._nsync = False
