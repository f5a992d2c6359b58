"""Wide-datapath tagger: W bytes per clock cycle (§5.2).

"Other improvements in speed can be gained by scaling the design to
process 32-bits or 64-bits per clock cycle."

The single-byte tagger advances every tokenizer's position registers
once per cycle. The wide variant presents ``W`` bytes ("lanes") per
cycle and chains ``W`` combinational copies of the transition logic
between the position registers:

* decoders are replicated per lane (area × W);
* within a beat, a detection at lane ``k`` enables its Follow-set
  successors at lane ``k+1`` *combinationally* — tokens may start,
  end, and chain inside a single beat;
* the longest-match look-ahead for lane ``k`` uses lane ``k+1`` of the
  same beat, and for the last lane the first lane of the *next* beat
  (one pipeline stage earlier, the same Fig. 7 trick as the byte
  design);
* arming (delimiter stall) carries lane to lane and beat to beat.

Which tokenizers exist and which detect enables which is not derived
here: the generator reads the grammar's default-wiring
:class:`~repro.core.scanplan.ScanPlan` (context duplication,
start-once, loop-on-accept), as the byte-serial generator and the
software engines do, so the lanes chain exactly the successors those
engines scan with.

The cost is logic depth: the beat-internal chain is ~W gate levels
between registers, so frequency falls as W grows while bandwidth =
frequency × 8 × W (usually still a large net win) — exactly the
trade-off the paper's future work anticipates. The
``benchmarks/bench_wide.py`` experiment quantifies it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.decoder import DecoderBank
from repro.core.options import DecoderOptions, WiringOptions
from repro.core.scanplan import build_scan_plan
from repro.core.tagger import DetectEvent
from repro.core.tokenizer import DETECT_LATENCY
from repro.core.wiring import predecessors
from repro.errors import GenerationError
from repro.grammar.analysis import Occurrence
from repro.grammar.cfg import Grammar
from repro.grammar.regex.glushkov import Glushkov
from repro.rtl.netlist import Net, Netlist
from repro.rtl.simulator import Simulator


@dataclass
class WideTaggerCircuit:
    """A generated W-byte-per-cycle tagger."""

    grammar: Grammar
    netlist: Netlist
    lanes: int
    occurrences: list[Occurrence]
    #: (occurrence, lane) -> detect output port name
    detect_ports: dict[tuple[Occurrence, int], str]
    #: beats from a byte beat on the pins to its registered detects
    detect_latency: int = DETECT_LATENCY

    def describe(self) -> str:
        return (
            f"wide tagger[{self.grammar.name}] x{self.lanes} lanes: "
            f"{len(self.occurrences)} tokenizers, "
            f"{self.netlist.n_gates} gates, "
            f"{self.netlist.n_registers} registers"
        )


@dataclass
class _OccState:
    """Per-occurrence placeholders and per-lane nets during build."""

    auto: Glushkov
    pos_q: list[Net] = field(default_factory=list)
    armed_q: Net | None = None
    det_last_lane_q: Net | None = None
    #: per-lane: list of position nets "active after lane k"
    pos_lane: list[list[Net]] = field(default_factory=list)
    detect_lane: list[Net] = field(default_factory=list)
    armed_lane: list[Net] = field(default_factory=list)


class WideTaggerGenerator:
    """Generates W-lane taggers (context duplication, or-tree-free).

    The wide variant focuses on the datapath experiment: it exposes
    per-lane detect wires (no index encoder) and wires the default
    plan (``build_scan_plan(grammar, WiringOptions())``).
    """

    def __init__(self, lanes: int, decoder: DecoderOptions | None = None) -> None:
        if lanes < 1:
            raise GenerationError("need at least one lane")
        self.lanes = lanes
        self.decoder_options = decoder or DecoderOptions()

    # ------------------------------------------------------------------
    def generate(self, grammar: Grammar) -> WideTaggerCircuit:
        plan = build_scan_plan(grammar, WiringOptions())
        units = plan.units
        if not units:
            raise GenerationError("grammar has no terminal occurrences")
        nl = Netlist(f"wide{self.lanes}_{grammar.name}")
        W = self.lanes

        banks = [
            DecoderBank(
                nl,
                grammar.lexspec.delimiters.matched_bytes(),
                options=self.decoder_options,
                port_prefix=f"l{k}_data",
                valid_port=f"l{k}_valid",
            )
            for k in range(W)
        ]

        states: dict[Occurrence, _OccState] = {}
        for occurrence in units:
            name = occurrence.terminal.name
            auto = plan.automata[name]
            prefix = f"w_{_sanitize(name)}_{occurrence.context_name()}"
            state = _OccState(auto=auto)
            state.pos_q = [
                nl.placeholder(f"{prefix}_p{p}") for p in range(auto.n_positions)
            ]
            state.armed_q = nl.placeholder(f"{prefix}_armed")
            state.det_last_lane_q = nl.placeholder(f"{prefix}_detq")
            states[occurrence] = state

        preds = predecessors(plan)

        # Per-lane delimiter-or-idle terms.
        lane_delim = [banks[k].cur_delim_or_idle() for k in range(W)]

        # Lane-by-lane construction across ALL tokenizers, so that a
        # lane-k detect can feed a successor's lane-(k+1) entry.
        for k in range(W):
            bank = banks[k]
            for occurrence in units:
                state = states[occurrence]
                auto = state.auto
                prefix = (
                    f"w_{_sanitize(occurrence.terminal.name)}"
                    f"_{occurrence.context_name()}_l{k}"
                )
                # Enable: predecessors' detect at the previous lane
                # (combinational within the beat) or, for lane 0, the
                # registered last-lane detect of the previous beat.
                sources: list[Net] = []
                for predecessor in preds[occurrence]:
                    pred = states[predecessor]
                    if k == 0:
                        sources.append(pred.det_last_lane_q)  # type: ignore[arg-type]
                    else:
                        sources.append(pred.detect_lane[k - 1])
                if occurrence in plan.starts and k == 0:
                    sources.append(banks[0].start_pulse)
                enable = (
                    nl.or_tree(sources, name=f"{prefix}_en")
                    if sources
                    else nl.const(0)
                )

                armed_before = (
                    state.armed_q if k == 0 else state.armed_lane[k - 1]
                )
                entry = nl.or_(enable, armed_before, name=f"{prefix}_entry")
                state.armed_lane.append(
                    nl.and_(entry, lane_delim[k], name=f"{prefix}_armed")
                )

                previous = (
                    state.pos_q if k == 0 else state.pos_lane[k - 1]
                )
                feeders: dict[int, list[int]] = {
                    p: [] for p in range(auto.n_positions)
                }
                for source_pos, targets in auto.follow.items():
                    for target in targets:
                        feeders[target].append(source_pos)
                lane_positions: list[Net] = []
                for p in range(auto.n_positions):
                    acts: list[Net] = [previous[q] for q in sorted(feeders[p])]
                    if p in auto.first:
                        acts.append(entry)
                    if not acts:
                        lane_positions.append(nl.const(0))
                        continue
                    activation = (
                        acts[0]
                        if len(acts) == 1
                        else nl.or_tree(acts, name=f"{prefix}_p{p}_src")
                    )
                    lane_positions.append(
                        nl.and_(
                            activation,
                            bank.cur(auto.position_bytes[p]),
                            name=f"{prefix}_p{p}",
                        )
                    )
                state.pos_lane.append(lane_positions)

                # Detection at this lane with Fig. 7 look-ahead from
                # lane k+1 (same beat) or lane 0 of the next beat.
                terms: list[Net] = []
                for p in sorted(auto.last):
                    extension = auto.extension_bytes(p)
                    term = lane_positions[p]
                    if extension:
                        if k + 1 < W:
                            next_in_ext = banks[k + 1].cur(extension)
                        else:
                            next_in_ext = banks[0].nxt(extension)
                        term = nl.and_(
                            term,
                            nl.not_(next_in_ext),
                            name=f"{prefix}_p{p}_lm",
                        )
                    terms.append(term)
                state.detect_lane.append(
                    terms[0]
                    if len(terms) == 1
                    else nl.or_tree(terms, name=f"{prefix}_det")
                )

        # Close the beat-boundary registers and expose outputs.
        detect_ports: dict[tuple[Occurrence, int], str] = {}
        for occurrence in units:
            state = states[occurrence]
            for p in range(state.auto.n_positions):
                nl.close_reg(state.pos_q[p], state.pos_lane[W - 1][p])
            assert state.armed_q is not None
            nl.close_reg(state.armed_q, state.armed_lane[W - 1])
            assert state.det_last_lane_q is not None
            nl.close_reg(state.det_last_lane_q, state.detect_lane[W - 1])
            for k in range(W):
                port = (
                    f"det_{_sanitize(occurrence.terminal.name)}"
                    f"_{occurrence.context_name()}_l{k}"
                )
                nl.output(port, nl.reg(state.detect_lane[k], name=f"{port}_q"))
                detect_ports[(occurrence, k)] = port

        nl.validate()
        return WideTaggerCircuit(
            grammar=grammar,
            netlist=nl,
            lanes=W,
            occurrences=list(units),
            detect_ports=detect_ports,
        )


class WideGateLevelTagger:
    """Drives a wide tagger netlist; reports byte-exact detect events."""

    def __init__(self, circuit: WideTaggerCircuit) -> None:
        self.circuit = circuit
        self.simulator = Simulator(circuit.netlist)

    def events(self, data: bytes) -> list[DetectEvent]:
        """Detection events; identical to the byte-serial tagger's."""
        W = self.circuit.lanes
        simulator = self.simulator
        simulator.reset()
        n_beats = (len(data) + W - 1) // W
        flush = self.circuit.detect_latency + 2
        events: list[DetectEvent] = []
        latency = self.circuit.detect_latency
        ports = self.circuit.detect_ports
        for beat in range(n_beats + flush):
            frame: dict[str, int] = {}
            for k in range(W):
                index = beat * W + k
                byte = data[index] if index < len(data) else 0
                valid = 1 if index < len(data) else 0
                for bit in range(8):
                    frame[f"l{k}_data{bit}"] = (byte >> bit) & 1
                frame[f"l{k}_valid"] = valid
            outputs = simulator.step(frame)
            data_beat = beat - latency
            if data_beat < 0:
                continue
            for (occurrence, lane), port in ports.items():
                if outputs[port]:
                    end = data_beat * W + lane + 1
                    if end <= len(data):
                        events.append(DetectEvent(occurrence, end))
        events.sort(key=lambda e: (e.end, str(e.occurrence)))
        return events


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)
