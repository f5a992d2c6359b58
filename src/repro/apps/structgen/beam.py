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
``tests/apps/test_beam_complete.py`` enforce it): the beam entries of
the native module (``_nativescan.c``, built and loaded like the scan
kernel), and a tight pure-Python loop (the portable path, what
``REPRO_DISABLE_NATIVE=1`` or a missing compiler selects); a session
takes the kernel whenever the module loads.  Both read the table's one
row matrix (:attr:`~repro.apps.structgen.masks.MaskTable.matrix`): CI
eager, CD completed once per state by ``masks_packed()`` before it
hands out rows.  On the kernel ``advance()`` is one ``beam_step`` call
— range check, atomic advance over the scan IR's ``next`` array in
place, gather — and ``masks_packed()`` returns the rows that call
gathered unless something moved the beam or completed a row since.

:func:`encode_lane_records` turns gathered rows into the MASKS wire
frame's lane records, delta-encoded against the rows last sent — in
the kernel when it is loaded, over :func:`xor_patch` otherwise.
"""

from __future__ import annotations

import re
import struct
from array import array
from itertools import accumulate

from repro.core import _native_build

from .masks import MaskError, MaskTable

__all__ = [
    "BeamMaskSession",
    "apply_xor_patch",
    "beam_capability",
    "encode_lane_records",
    "xor_patch",
]

#: Mutating calls :meth:`BeamMaskSession.rollback` can undo.
_HISTORY_CAP = 1024


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
    ext = _native_build.load_kernel()
    if ext is not None:
        return ext.beam_encode_masks(packed, prev, states, row_bytes)
    n_prev = min(len(prev) // row_bytes, w)
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
    (``/stats``): the native module as already loaded or prebuilt, so
    a scrape never triggers a build."""
    return {"native": _native_build.load_kernel(probe=False) is not None}


def _plan(table: MaskTable, ext):
    """The kernel's plan for ``table``, built once and shared by every
    session on it.  It views the IR's ``next`` array and the table's
    matrix themselves, not copies, so it gathers rows completed later."""
    if table._beam_cache is None:
        lowering = table.lowering
        table._beam_cache = ext.beam_plan(
            lowering.ir.next,
            lowering.ir.lost,
            lowering.doomed,
            b"".join(table.codes),
            array("i", accumulate(map(len, table.codes), initial=0)),
            table.matrix,
        )
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
        "_kstep",
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
        ext = _native_build.load_kernel()
        self._kstep = None if ext is None else ext.beam_step
        self._nt = None if ext is None else _plan(table, ext)
        #: (prev states, next states, gathered rows) of the kernel step.
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
            rows = bytes(self._nbuf[2])
        else:  # gather afresh; the lanes' states are complete
            rb = table.row_bytes
            matrix = memoryview(table.matrix)
            rows = b"".join(
                [matrix[s * rb : (s + 1) * rb] for s in self._states]
            )
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
        if self._kept < 0:
            # The beam moved some other way (or never stepped): resync.
            self._nbuf = (
                array("i", self._states),
                array("i", self._states),
                bytearray(len(toks) * self.table.row_bytes),
            )
        prev, nxt, rows = self._nbuf
        lane = self._kstep(self._nt, toks, prev, nxt, rows)
        if lane >= 0:
            self._fail(lane, toks)
        # Swap prev/next so the committed states stay resident for
        # the next step without a resync copy.
        self._nbuf = (nxt, prev, rows)
        self._kept = self.table.memo_misses
        return tuple(nxt)

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
