"""Whole-tagger hardware generation (the paper's Fig. 3 architecture).

"For a given grammar description, the automatic hardware generator
builds high performance pattern detection engines. Then, the
syntactical structure is formed out of the pattern detection engines
using the First and Follow set algorithms." (§1)

:class:`TaggerGenerator` turns a :class:`~repro.grammar.cfg.Grammar`
into a :class:`TaggerCircuit`: a complete netlist with

* the shared decoder bank (Figs. 4–5),
* one tokenizer per terminal occurrence (Figs. 6–7),
* the Follow-set enable wiring (Fig. 11),
* a pipelined token index encoder (eqs. 1–5), and
* one detect output wire per occurrence for the back-end (§3.5),

plus the metadata needed to interpret the outputs (occurrence order,
encoder index map, pipeline latencies).

The units, their wiring and the accepting set all come from the
grammar's :class:`~repro.core.scanplan.ScanPlan` (``scanner.plan``),
the one derivation the software engines scan with: the ``accept`` pin
ORs the detects of ``plan.accepting``, and the priority encoder's
conflict groups follow ``plan.successors``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.decoder import DecoderBank
from repro.core.encoder import (
    EncoderResult,
    assign_nested_indices,
    build_case_encoder,
    build_mask_encoder,
    build_or_tree_encoder,
)
from repro.core.options import TaggerOptions
from repro.core.tokenizer import DETECT_LATENCY
from repro.core.wiring import (
    WiredScanner,
    build_scanner,
    estimate_conflict_groups,
)
from repro.errors import GenerationError
from repro.grammar.analysis import Occurrence
from repro.grammar.cfg import Grammar
from repro.rtl.netlist import Netlist


@dataclass
class TaggerCircuit:
    """A generated tagger: netlist plus interpretation metadata."""

    grammar: Grammar
    netlist: Netlist
    scanner: WiredScanner
    encoder: EncoderResult | None
    options: TaggerOptions
    #: occurrence -> detect output port name
    detect_ports: dict[Occurrence, str]
    detect_latency: int = DETECT_LATENCY

    @property
    def occurrences(self) -> tuple[Occurrence, ...]:
        """Encoder input order; position ``i`` maps to index ``i+1``
        for the or-tree encoder (see ``encoder.index_of_input``)."""
        return self.scanner.plan.units

    @property
    def index_latency(self) -> int:
        """Input byte to encoded index latency, in cycles."""
        if self.encoder is None:
            raise GenerationError("tagger was generated without an encoder")
        return self.detect_latency + self.encoder.latency

    def index_of(self, occurrence: Occurrence) -> int | None:
        """The encoder index emitted when ``occurrence`` detects."""
        if self.encoder is None:
            return None
        position = self.occurrences.index(occurrence)
        return self.encoder.index_of_input[position]

    def occurrence_of_index(self, index: int) -> Occurrence | None:
        """Inverse of :meth:`index_of` (None for unassigned indices)."""
        if self.encoder is None:
            return None
        for position, value in self.encoder.index_of_input.items():
            if value == index:
                return self.occurrences[position]
        return None

    def pattern_bytes(self) -> int:
        """The Table 1 '# of Bytes' metric for this design."""
        lexspec = self.grammar.lexspec
        used = {t.name for t in self.grammar.used_terminals()}
        return sum(
            token.pattern_bytes() for token in lexspec if token.name in used
        )

    def describe(self) -> str:
        enc = self.encoder.style if self.encoder else "none"
        return (
            f"tagger[{self.grammar.name}]: "
            f"{len(self.occurrences)} tokenizers, "
            f"{self.pattern_bytes()} pattern bytes, "
            f"{self.netlist.n_gates} gates, "
            f"{self.netlist.n_registers} registers, encoder={enc}"
        )


class TaggerGenerator:
    """Generates tagger circuits from grammars.

    Example
    -------
    >>> from repro.grammar.examples import if_then_else
    >>> circuit = TaggerGenerator().generate(if_then_else())
    >>> circuit.netlist.validate()
    """

    def __init__(self, options: TaggerOptions | None = None) -> None:
        self.options = options or TaggerOptions()

    def generate(self, grammar: Grammar, name: str | None = None) -> TaggerCircuit:
        options = self.options
        netlist = Netlist(name or f"tagger_{_sanitize(grammar.name)}")
        decoders = DecoderBank(
            netlist,
            grammar.lexspec.delimiters.matched_bytes(),
            options=options.decoder,
        )
        scanner = build_scanner(netlist, decoders, grammar, options.wiring)

        detects = [scanner.instances[o].detect for o in scanner.plan.units]
        encoder = self._build_encoder(netlist, scanner, detects)

        detect_ports: dict[Occurrence, str] = {}
        if options.expose_detects:
            for occurrence in scanner.plan.units:
                port = f"det_{_sanitize(occurrence.terminal.name)}_{occurrence.context_name()}"
                netlist.output(port, scanner.instances[occurrence].detect)
                detect_ports[occurrence] = port

        if options.expose_accept:
            accepting = [
                scanner.instances[o].detect
                for o in scanner.plan.units
                if o in scanner.plan.accepting
            ]
            accept = (
                netlist.or_tree(accepting, name="accept")
                if accepting
                else netlist.const(0)
            )
            netlist.output("accept", accept)

        if encoder is not None:
            for bit, net in enumerate(encoder.index_bits):
                netlist.output(f"index{bit}", net)
            netlist.output("match_valid", encoder.valid)

        if scanner.lost is not None:
            netlist.output("parse_error", scanner.lost)

        netlist.validate()
        return TaggerCircuit(
            grammar=grammar,
            netlist=netlist,
            scanner=scanner,
            encoder=encoder,
            options=options,
            detect_ports=detect_ports,
        )

    def _build_encoder(
        self, netlist: Netlist, scanner: WiredScanner, detects
    ) -> EncoderResult | None:
        style = self.options.encoder_style
        if style == "none":
            return None
        if style == "or-tree":
            return build_or_tree_encoder(netlist, detects)
        if style == "case":
            return build_case_encoder(netlist, detects)
        if style == "priority":
            groups = estimate_conflict_groups(scanner)
            indices = assign_nested_indices(len(detects), groups)
            return build_mask_encoder(netlist, detects, indices)
        raise GenerationError(f"unknown encoder style {style!r}")


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)
