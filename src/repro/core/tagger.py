"""Tagger front ends: behavioral (fast) and gate-level (exact).

:class:`BehavioralTagger` is an event-driven software implementation of
*exactly* the hardware semantics — the same parallel per-occurrence
detection, arming across delimiter runs, longest-match look-ahead and
Follow-set gating — expressed over byte indices instead of pipeline
cycles. The test suite proves it equivalent to the gate-level netlist
simulation; applications and large benchmarks use it for speed.

By default the scan itself is executed by the compiled table-driven
engine (:class:`~repro.core.compiled.CompiledTagger`), which
precomputes the per-byte work into integer transition tables; the
original interpreted loop remains available as
``engine="interpreted"`` and is the executable reference semantics
the compiled engine is differentially tested against.

:class:`GateLevelTagger` drives the generated netlist through the
cycle-accurate simulator and decodes the detect/index output pins back
into tagged tokens. It is the ground truth.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Literal

from repro.core.api import BufferedSession, StreamSession
from repro.core.compiled import CompiledTagger
from repro.core.options import TaggerOptions
from repro.core.scanplan import DetectEvent, build_scan_plan
from repro.core.tokens import TaggedToken
from repro.grammar.analysis import Occurrence
from repro.grammar.cfg import Grammar
from repro.grammar.regex import ast as rx
from repro.grammar.regex.glushkov import Glushkov
from repro.grammar.regex.nfa import NFA, compile_nfa

if TYPE_CHECKING:
    from repro.core.generator import TaggerCircuit

__all__ = [
    "BehavioralTagger",
    "DetectEvent",
    "GateLevelTagger",
]


class BehavioralTagger:
    """Software twin of the generated hardware.

    ``engine`` selects the scan implementation: ``"compiled"`` (the
    default) runs the precompiled table-driven engine, bit-exact with
    the interpreted loop; ``"native"`` runs the C inner loop over the
    same dense tables (:class:`~repro.core.nativescan.NativeTagger`,
    which degrades to the compiled loop without a compiler or with
    ``REPRO_DISABLE_NATIVE=1``); ``"vector"`` runs the wide-datapath
    NumPy engine (:class:`~repro.core.vectorscan.VectorTagger`, which
    degrades to the compiled loop when NumPy is absent) and is reached
    only by name; ``"interpreted"`` runs the original per-byte Python
    loop (the reference semantics).  A registry ref becomes a tagger
    through ``Registry(root).load(ref).tagger(engine)``.

    Example
    -------
    >>> from repro.grammar.examples import if_then_else
    >>> tagger = BehavioralTagger(if_then_else())
    >>> [str(t) for t in tagger.tag(b"if true then go else stop")]  # doctest: +ELLIPSIS
    [...]
    """

    def __init__(
        self,
        grammar: Grammar,
        options: TaggerOptions | None = None,
        engine: Literal[
            "compiled", "interpreted", "vector", "native"
        ] = "compiled",
    ) -> None:
        from repro.core.capabilities import resolve_engine

        self.grammar = grammar
        self.options = options or TaggerOptions()
        self.engine = engine = resolve_engine(engine)
        plan = build_scan_plan(grammar, self.options.wiring)
        self.plan = plan
        self.units: list[Occurrence] = list(plan.units)
        self.starts = set(plan.starts)
        self.accepting = set(plan.accepting)
        self.successors = plan.successors
        self.automata: dict[str, Glushkov] = plan.automata
        self.delimiters = plan.delimiters
        self.longest_match = plan.longest_match
        self._boundary = plan.boundary
        self._index_of = plan.index_of
        #: stable unit ordering, so same-byte events come out in the
        #: same order as the hardware's detect port scan.
        self._unit_order = plan.unit_order
        if engine == "native":
            from repro.core.nativescan import NativeTagger

            self.compiled: CompiledTagger | None = NativeTagger(grammar, self.options)
        elif engine == "vector":
            from repro.core.vectorscan import VectorTagger

            self.compiled = VectorTagger(grammar, self.options)
        else:
            self.compiled = (
                CompiledTagger(grammar, self.options)
                if engine == "compiled"
                else None
            )

    # ------------------------------------------------------------------
    def __reduce__(self):
        # Compact rebuild spec (see CompiledTagger.__reduce__): the
        # unpickling process re-derives plan and tables through the
        # grammar's memo instead of shipping materialized structure.
        return (BehavioralTagger, (self.grammar, self.options, self.engine))

    # ------------------------------------------------------------------
    def index_of(self, unit: Occurrence) -> int:
        """Default (or-tree) encoder index for a unit."""
        return self._index_of[unit]

    def stream(self) -> StreamSession:
        """A fresh incremental session (buffered for the interpreted
        engine, which has no incremental scan)."""
        if self.compiled is not None:
            return self.compiled.stream()
        return BufferedSession(self)

    # ------------------------------------------------------------------
    def events(self, data: bytes) -> list[DetectEvent]:
        """Raw detection events, bit-exact with the hardware detects."""
        if self.compiled is not None:
            return self.compiled.events(data)
        return [event for event, _starts in self._scan(data)]

    def events_and_errors(
        self, data: bytes
    ) -> tuple[list[DetectEvent], list[int]]:
        """Detection events plus §5.2 error positions.

        An error position ``j`` means the parser had lost all state
        when byte ``j`` arrived and the recovery logic re-armed the
        start tokenizers there. Requires
        ``options.wiring.error_recovery``.
        """
        if not self.options.wiring.error_recovery:
            raise ValueError("tagger built without error_recovery")
        if self.compiled is not None:
            return self.compiled.events_and_errors(data)
        errors: list[int] = []
        events = [e for e, _s in self._scan(data, error_sink=errors)]
        return events, errors

    def tag(self, data: bytes) -> list[TaggedToken]:
        """Tagged tokens with lexemes (earliest-start reconstruction)."""
        if self.compiled is not None:
            return self.compiled.tag(data)
        index_of = self._index_of
        return [
            TaggedToken.of(unit, data[start:end], start, end, index_of[unit])
            for (unit, end), start in self._scan(data)
        ]

    # ------------------------------------------------------------------
    def _scan(self, data: bytes, error_sink: list[int] | None = None):
        """Yield (DetectEvent, match_start) pairs in stream order.

        State per live unit mirrors the hardware registers: the arming
        bit and the set of lit position registers (mapped to the
        earliest start index that lit them). With error recovery on,
        a byte processed while *no* register anywhere holds state
        re-arms the starts (and is reported through ``error_sink``).
        """
        starts_cond_always = self.options.wiring.start_mode == "always"
        recovery = self.options.wiring.error_recovery
        delimiters = self.delimiters
        longest = self.longest_match

        armed: set[Occurrence] = set()
        active: dict[Occurrence, dict[int, int]] = {}
        detected_last: list[Occurrence] = []
        lost = False

        for i, byte in enumerate(data):
            next_byte = data[i + 1] if i + 1 < len(data) else None
            # Units enabled this byte by last byte's detections.
            enabled: set[Occurrence] = set()
            for unit in detected_last:
                enabled |= self.successors[unit]
            if starts_cond_always or i == 0:
                enabled |= self.starts
            if recovery and lost:
                enabled |= self.starts
                if error_sink is not None:
                    error_sink.append(i)

            is_delim = byte in delimiters
            detected_now: list[Occurrence] = []
            results: list[tuple[DetectEvent, int]] = []

            live = set(active) | armed | enabled
            new_armed: set[Occurrence] = set()
            for unit in live:
                entry = unit in enabled or unit in armed
                if entry and is_delim:
                    new_armed.add(unit)
                auto = self.automata[unit.terminal.name]
                previous = active.get(unit)
                lit: dict[int, int] = {}
                if previous:
                    for position, start in previous.items():
                        for successor in auto.follow[position]:
                            if byte in auto.position_bytes[successor]:
                                best = lit.get(successor)
                                if best is None or start < best:
                                    lit[successor] = start
                if entry:
                    for position in auto.first:
                        if byte in auto.position_bytes[position]:
                            best = lit.get(position)
                            if best is None or i < best:
                                lit[position] = i
                if lit:
                    active[unit] = lit
                elif previous:
                    del active[unit]

                # Detection with the Fig. 7 longest-match look-ahead.
                match_start: int | None = None
                boundary = self._boundary[unit.terminal.name]
                for position, start in lit.items():
                    if position not in auto.last:
                        continue
                    extension = (
                        auto.extension_bytes(position) if longest else frozenset()
                    )
                    extension |= boundary
                    if (
                        extension
                        and next_byte is not None
                        and next_byte in extension
                    ):
                        continue
                    if match_start is None or start < match_start:
                        match_start = start
                if match_start is not None:
                    detected_now.append(unit)
                    results.append(
                        (DetectEvent(unit, i + 1), match_start)
                    )

            if recovery:
                # Mirrors the hardware liveness cut exactly: position
                # D inputs and arming of *this* byte, plus the
                # registered detect of the *previous* byte.
                lost = not (active or new_armed or detected_last)
            armed = new_armed
            detected_last = detected_now
            results.sort(key=lambda pair: self._unit_order[pair[0].occurrence])
            yield from results


class GateLevelTagger:
    """Runs the generated netlist and decodes its outputs.

    ``run`` feeds one byte per cycle (plus flush cycles to drain the
    pipeline) and converts detect-pin pulses back to byte positions
    using the known pipeline latency.
    """

    def __init__(self, circuit: TaggerCircuit) -> None:
        from repro.rtl.simulator import Simulator

        self.circuit = circuit
        self.simulator = Simulator(circuit.netlist)
        self._occurrence_of_port = {
            port: occurrence
            for occurrence, port in circuit.detect_ports.items()
        }

    # ------------------------------------------------------------------
    def _flush_cycles(self) -> int:
        latency = self.circuit.detect_latency
        if self.circuit.encoder is not None:
            latency += self.circuit.encoder.latency
        return latency + 2

    def events(self, data: bytes) -> list[DetectEvent]:
        """Detection events recovered from the detect output pins."""
        events, _errors = self._simulate(data, collect_errors=False)
        return events

    def events_and_errors(
        self, data: bytes
    ) -> tuple[list[DetectEvent], list[int]]:
        """Detection events plus §5.2 error positions, in one
        simulation pass (detect pins and the parse_error pin are read
        off the same cycles). Bit-exact with
        :meth:`BehavioralTagger.events_and_errors`.
        """
        if "parse_error" not in self.circuit.netlist.outputs:
            raise ValueError("circuit generated without error_recovery")
        return self._simulate(data, collect_errors=True)

    def stream(self) -> StreamSession:
        """A buffered session (the cycle-accurate simulation cannot
        scan incrementally; chunks are scanned at ``finish()``)."""
        return BufferedSession(self)

    def _frames(self, data: bytes) -> list[dict[str, int]]:
        """Reset the simulator; the input frames for ``data``."""
        from repro.rtl.simulator import stimulus_with_valid

        self.simulator.reset()
        return stimulus_with_valid(data, self._flush_cycles())

    def _simulate(
        self, data: bytes, collect_errors: bool
    ) -> tuple[list[DetectEvent], list[int]]:
        """One pass over the netlist reading detect (and optionally
        parse_error) pins, converting cycles to byte positions."""
        frames = self._frames(data)
        latency = self.circuit.detect_latency
        events: list[DetectEvent] = []
        errors: list[int] = []
        for cycle, frame in enumerate(frames):
            outputs = self.simulator.step(frame)
            end = cycle - latency + 1  # exclusive end position
            if (
                collect_errors
                and outputs["parse_error"]
                and 0 <= end < len(data)
            ):
                errors.append(end)
            if end < 1:
                continue
            for port, occurrence in self._occurrence_of_port.items():
                if outputs[port]:
                    events.append(DetectEvent(occurrence, end))
        return events, errors

    def index_stream(self, data: bytes) -> list[tuple[int, int]]:
        """(end, index) pairs read off the encoder output pins.

        A pin-level probe of the Fig. 13 encoder, outside the
        :class:`~repro.core.api.TokenTagger` protocol (the portable
        equivalent is :meth:`tag`, whose tokens carry ``index``); kept
        for hardware validation, which must see the actual pins.
        """
        if self.circuit.encoder is None:
            raise ValueError("circuit has no encoder")
        frames = self._frames(data)
        latency = self.circuit.index_latency
        width = self.circuit.encoder.width
        stream: list[tuple[int, int]] = []
        for cycle, frame in enumerate(frames):
            outputs = self.simulator.step(frame)
            end = cycle - latency + 1
            if end < 1 or not outputs["match_valid"]:
                continue
            index = sum(outputs[f"index{bit}"] << bit for bit in range(width))
            stream.append((end, index))
        return stream

    def tag(self, data: bytes) -> list[TaggedToken]:
        """Tagged tokens; lexemes recovered by reversed-pattern match."""
        # Reversed once per call: every event matches its reversed
        # pattern from its own offset into the one reversed stream.
        reversed_data = data[::-1]
        index_of = self.circuit.index_of
        tokens: list[TaggedToken] = []
        for unit, end in self.events(data):
            start = self._recover_start(reversed_data, unit, end)
            tokens.append(
                TaggedToken.of(unit, data[start:end], start, end, index_of(unit))
            )
        return tokens

    def _recover_start(
        self, reversed_data: bytes, unit: Occurrence, end: int
    ) -> int:
        """Earliest start of ``unit``'s match ending at ``end``.

        The hardware reports only ends; the longest match of the
        reversed pattern over the reversed stream, from the byte
        before ``end`` backwards, gives the start.
        """
        name = unit.terminal.name
        grammar = self.circuit.grammar
        # One reversed-pattern NFA per token, shared by every gate-level
        # tagger over the grammar.
        nfa: NFA = grammar.derived(
            ("reverse", name),
            lambda: compile_nfa(rx.reverse(grammar.lexspec.get(name).pattern)),
        )
        length = nfa.longest_match(reversed_data, len(reversed_data) - end)
        if not length:
            return end - 1
        return end - length
