"""The scan IR: the dense product automaton, flattened once.

The paper's generator derives the datapath from the grammar once — one
shared character-class decoder (Fig. 5), one Follow-set wiring — and
every downstream block is wired to that one netlist.  :class:`ScanIR`
is the software counterpart: the lazily-materialized product automaton
of :mod:`repro.core.compiled` closed over every reachable state — one
step per byte class the plan's byte sets predict, never per byte — and
stored class-indexed in flat arrays (a class: bytes with identical full
transition columns).  It is built once per
(grammar, wiring) pair — or restored from an ``RART`` artifact — and
every table consumer (the native and vector scan engines, mask
lowering, the beam kernel, the artifact serializer; DESIGN.md §15
says what each reads) is handed that one object.  Its state ids are
its own: the closure runs on compiled tables of its own, never on the
ones a compiled loop steps, so the IR is a function of the (grammar,
wiring) pair alone, whatever traffic the process scanned before.

==============  ========================================================
field           content
==============  ========================================================
``n_states``    closed product states; ids in breadth-first closure
                order
``n_classes``   byte classes ``C`` (at most 256)
``class_table`` 256 bytes, byte value -> class code (``bytes.translate``)
``next``        int32 ``array``, ``next[state * C + cls]`` -> next state
``effect``      int32 ``array``, same index: 0 for a bare edge, else an
                index into ``effects``
``effects``     ``[None, (events, start_ops, err), ...]`` — the compiled
                step's side effects as ``build_step`` returns them
                (register-file indices), distinct by value, then the
                end-of-data ones ``(events, None, False)``
``skip_live``   ``{state: 256 raw-byte flags}`` for dead states (armed
                set empty, almost every byte a bare self-loop): 0 marks
                an inert byte, so ``translate`` + ``find`` fast-forwards
``lost``        per-state flag byte: the §5.2 liveness cut fires on the
                state's next step (every outgoing edge reports an error)
``eof``         int32 ``array``, per state: 0, or the index into
                ``effects`` of the events end-of-data resolves there
                (nonzero: some pending unit detects against end-of-data)
``live``        per state, the units holding position registers (what
                the low watermark reads), ascending
``emits``       per-state flag byte: some outgoing edge emits an event
``unit_caps``   per-unit start-register capacity: unit ``u``'s registers
                start at ``sum(unit_caps[:u])``, then the length row
==============  ========================================================

No NumPy anywhere: the IR is what keeps the native engine and mask
lowering available under ``REPRO_DISABLE_NUMPY=1``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import accumulate

from repro.core.compiled import _CompiledTables
from repro.core.scanplan import ScanPlan, _wiring_key
from repro.errors import ArtifactError

__all__ = ["ScanIR", "closed_tables", "scan_ir_for"]

#: Closure bail-out: a product automaton past this many states is not
#: worth densifying (the closure alone would dominate), so consumers
#: run without an IR (the scan engines on the compiled loop).  The
#: closure steps byte classes, so bailing out costs at most cap × C
#: steps, not cap × 256.
_MAX_PRODUCT_STATES = 2048

#: A state is skippable when at least this many of its 256 byte edges
#: are bare self-loops (and its armed set is empty): nothing can start
#: or extend a token there, so inert runs may be fast-forwarded.
_SKIP_MIN_COVERAGE = 192


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise ArtifactError(f"malformed scan IR: {what}")


def _in_unit(registers, lo: int, hi: int) -> bool:
    """Whether ``registers`` is a non-empty tuple of ints in ``[lo, hi)``."""
    return type(registers) is tuple and registers != () and all(
        type(j) is int and lo <= j < hi for j in registers
    )


def _valid_effect(effect, ofs: tuple) -> bool:
    """Whether ``effect`` unpacks as ``(events, start_ops, err)`` with
    every index in bounds (``ofs``: each unit's first register, then
    the length row's): an event's or a copy's registers inside one
    unit, sets inside the unit registers, lengths on the length row
    within their unit's capacity — what the consumers (bytecode
    lowering, window codegen) rely on without re-checking."""
    n_units, total = len(ofs) - 1, ofs[-1]

    def unit_of(r) -> int:  # the unit holding register r, or -1
        ok = type(r) is int and 0 <= r < total
        return bisect_right(ofs, r) - 1 if ok else -1

    try:
        events, start_ops, err = effect
        copies, sets, lengths = start_ops or ((), (), ())
        folds = [(u, q) for u, q in events or ()]
        folds += [(unit_of(d), srcs) for d, srcs in copies]
        folds += [(unit_of(d), (d,)) for d in sets]
        rows = [(at - total, n) for at, n in lengths]
    except (TypeError, ValueError):  # wrong arity, not iterable
        return False
    in_unit = all(
        type(u) is int and 0 <= u < n_units and _in_unit(q, ofs[u], ofs[u + 1])
        for u, q in folds
    )
    return in_unit and err in (False, True) and all(
        type(u) is int and 0 <= u < n_units and type(n) is int
        and 0 <= n <= ofs[u + 1] - ofs[u]
        for u, n in rows
    )


class ScanIR:
    """The closed, class-indexed product automaton of one (grammar,
    wiring) pair; see the module docstring for the field table."""

    __slots__ = (
        "n_states",
        "n_classes",
        "class_table",
        "next",
        "effect",
        "effects",
        "skip_live",
        "lost",
        "eof",
        "live",
        "emits",
        "unit_caps",
    )

    # ------------------------------------------------------------------
    @classmethod
    def close(cls, tables: _CompiledTables) -> "ScanIR | None":
        """Step every state of ``tables`` on the lowest byte of each
        a-priori byte class (``_CompiledTables._byte_classes``) and
        flatten the result; None past the state cap.

        States are stepped in id order as the steps intern them —
        breadth-first, in the order a 256-byte sweep interns them — and
        class codes are numbered by first byte, so on tables nothing
        stepped before (what :func:`closed_tables` hands it) the IR of
        a grammar is the same in every process (mask artifacts pin this
        through :meth:`~repro.core.maskgen.MaskLowering.fingerprint`)."""
        classes = tables._byte_classes()
        reps = [(mask & -mask).bit_length() - 1 for mask in classes]
        width = len(reps)
        build_step = tables.build_step
        effects: list = [None]
        effect_ids: dict[tuple, int] = {}

        def intern(sig: tuple) -> int:  # the effect's index, distinct by value
            index = effect_ids.setdefault(sig, len(effects))
            if index == len(effects):
                effects.append(sig)
            return index

        # Rows over the a-priori classes, ``[state * width + class]``.
        nxt = array("i")
        eff = array("i")
        tid = 0
        while tid < len(tables.tstates):
            if tid == _MAX_PRODUCT_STATES:
                return None
            for byte in reps:
                step = build_step(tid, byte)
                if step.__class__ is int:
                    nxt.append(step >> 8)
                    eff.append(0)
                    continue
                nxt.append(step[0] >> 8)
                eff.append(intern(step[1:]))
            tid += 1
        n = tid
        # End-of-data's events join the effects behind every step's.
        eof_events = map(tables.eof_events, range(n))
        eof = array("i", [intern((e, None, False)) if e else 0 for e in eof_events])

        # Classes no reachable state tells apart merge: a class code is
        # a distinct full column ([k::width]), numbered by first byte.
        columns: dict[bytes, int] = {}
        class_of = bytearray(256)
        keep: list[int] = []
        for k, mask in enumerate(classes):
            column = nxt[k::width].tobytes() + eff[k::width].tobytes()
            code = columns.setdefault(column, len(columns))
            if code == len(keep):
                keep.append(k)
            while mask:
                low = mask & -mask
                class_of[low.bit_length() - 1] = code
                mask ^= low

        self = cls()
        self.n_states = n
        self.n_classes = len(keep)
        self.class_table = class_table = bytes(class_of)
        self.next = array("i")
        self.effect = array("i")
        self.effects = effects
        self.skip_live = {}
        self.unit_caps = tables.unit_caps()
        self.eof = eof
        self.live = []
        lost, emits = bytearray(n), bytearray(n)
        tstates = tables.tstates
        for tid in range(n):
            row_next = [nxt[tid * width + k] for k in keep]
            row_effect = [eff[tid * width + k] for k in keep]
            self.next.extend(row_next)
            self.effect.extend(row_effect)
            items, armed, pdet, first = tstates[tid]
            # Lost (§5.2): the liveness cut depends only on the source
            # state, so "this step reports an error" is per-state.
            lost[tid] = tables.recovery and not (
                first or items or armed or pdet
            )
            self.live.append(tuple(u for u, _s in items))
            emits[tid] = any(i and effects[i][0] for i in set(row_effect))
            if not armed:
                live_class = bytes(
                    [nt != tid or i > 0 for nt, i in zip(row_next, row_effect)]
                )
                live = class_table.translate(live_class.ljust(256, b"\0"))
                if live.count(0) >= _SKIP_MIN_COVERAGE:
                    self.skip_live[tid] = live
        self.lost, self.emits = bytes(lost), bytes(emits)
        return self

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """The IR as builtins only (what ``marshal`` can carry)."""
        return {
            "n_states": self.n_states,
            "n_classes": self.n_classes,
            "class_table": self.class_table,
            "next": self.next.tolist(),
            "effect": self.effect.tolist(),
            "effects": self.effects,
            "skip_live": self.skip_live,
            "lost": self.lost,
            "eof": self.eof.tolist(),
            "live": self.live,
            "emits": self.emits,
            "unit_caps": self.unit_caps,
        }

    @classmethod
    def from_payload(cls, payload) -> "ScanIR":
        """Rebuild an IR from :meth:`to_payload` output, validating
        everything read: a wrong-shaped or out-of-range payload raises
        :class:`~repro.errors.ArtifactError`, never anything else, and
        nothing it lets through can index out of bounds downstream."""
        _require(isinstance(payload, dict), "payload is not a dict")
        try:
            n = payload["n_states"]
            n_classes = payload["n_classes"]
            class_table = payload["class_table"]
            nxt = array("i", payload["next"])
            effect = array("i", payload["effect"])
            effects = payload["effects"]
            skip_live = payload["skip_live"]
            flags = [payload[name] for name in ("lost", "emits")]
            eof = array("i", payload["eof"])
            live = payload["live"]
            unit_caps = tuple(payload["unit_caps"])
        except (KeyError, TypeError, OverflowError) as exc:
            raise ArtifactError(f"malformed scan IR: {exc!r}") from None
        _require(
            type(n) is int
            and type(n_classes) is int
            and 0 < n <= _MAX_PRODUCT_STATES
            and 0 < n_classes <= 256,
            "bad dimensions",
        )
        _require(
            type(class_table) is bytes
            and len(class_table) == 256
            and max(class_table) < n_classes,
            "bad class table",
        )
        _require(
            len(nxt) == len(effect) == n * n_classes, "table size mismatch"
        )
        _require(
            type(effects) is list and bool(effects) and effects[0] is None,
            "bad effect list",
        )
        _require(0 <= min(nxt) and max(nxt) < n, "next state out of range")
        _require(
            0 <= min(effect) and max(effect) < len(effects),
            "effect index out of range",
        )
        _require(
            all(type(f) is bytes and len(f) == n for f in flags),
            "bad state flags",
        )
        _require(
            all(type(cap) is int and 0 < cap <= 1 << 16 for cap in unit_caps),
            "bad unit capacities",
        )
        ofs = tuple(accumulate(unit_caps, initial=0))
        _require(
            all(_valid_effect(e, ofs) for e in effects[1:]),
            "bad effect program",
        )
        _require(
            len(eof) == n
            and 0 <= min(eof)
            and max(eof) < len(effects)
            and all(effects[i][1:] == (None, False) for i in set(eof) - {0}),
            "bad end-of-data effects",
        )
        _require(
            type(live) is list
            and len(live) == n
            and all(units == () or _in_unit(units, 0, len(unit_caps)) for units in live),
            "bad live units",
        )
        _require(
            type(skip_live) is dict
            and all(
                type(tid) is int
                and 0 <= tid < n
                and type(row) is bytes
                and len(row) == 256
                for tid, row in skip_live.items()
            ),
            "bad skip rows",
        )
        self = cls()
        self.n_states = n
        self.n_classes = n_classes
        self.class_table = class_table
        self.next = nxt
        self.effect = effect
        self.effects = effects
        self.skip_live = skip_live
        self.lost, self.emits = flags
        self.eof, self.live = eof, live
        self.unit_caps = unit_caps
        return self


# ----------------------------------------------------------------------
def closed_tables(plan: ScanPlan) -> tuple[_CompiledTables, ScanIR | None]:
    """Fresh compiled tables and the IR closed on them (None past the
    state cap), which share state ids: the one place product states are
    numbered.  After an artifact load, which restores the IR alone, the
    first call closes them again, to the same ids."""

    def close() -> tuple[_CompiledTables, ScanIR | None]:
        tables = _CompiledTables(plan)
        return tables, ScanIR.close(tables)

    return plan.grammar.derived(("closure", _wiring_key(plan.wiring)), close)


def scan_ir_for(tagger) -> ScanIR | None:
    """The scan IR of the (grammar, wiring) pair ``tagger.plan`` names
    (a tagger's or a wired scanner's), closing the product automaton
    on first use (or restored by an artifact load); None when it is
    too large to densify."""
    plan = tagger.plan
    return plan.grammar.derived(
        ("ir", _wiring_key(plan.wiring)), lambda: closed_tables(plan)[1]
    )
