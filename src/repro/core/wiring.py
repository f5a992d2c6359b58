"""Syntactic control flow: Follow-set wiring of tokenizers (Fig. 11).

"We forward the output of each token to the inputs of the tokens
listed in its Follow set. When there is more than one connection to
the input of the tokenizer, an OR gate is used to combine the signals
into a single bit input." (§3.3)

Which tokenizers exist and what enables what is decided once per
(grammar, wiring), by the :class:`~repro.core.scanplan.ScanPlan` the
software engines scan with: its units (one per occurrence with
context duplication on, the default of §3.2; one per terminal in the
ablation), its successor map (loop-on-accept edges included), its
start and accepting sets and its per-token Glushkov automata. This
module only turns that plan into gates, in two passes: every
tokenizer is built against a placeholder enable net, then each
placeholder is driven with the OR of its predecessors' detect outputs
(plus the start condition for the start units), predecessors in unit
order so the netlist does not depend on the hash seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.decoder import DecoderBank
from repro.core.options import WiringOptions
from repro.core.scanir import scan_ir_for
from repro.core.scanplan import ScanPlan, build_scan_plan
from repro.core.tokenizer import TokenizerInstance, build_tokenizer
from repro.errors import GenerationError
from repro.grammar.analysis import Occurrence
from repro.grammar.cfg import Grammar
from repro.grammar.regex.ast import alphabet
from repro.rtl.netlist import Net, Netlist


@dataclass
class WiredScanner:
    """All tokenizers of a tagger plus the plan they were wired from."""

    plan: ScanPlan
    instances: dict[Occurrence, TokenizerInstance]
    #: Registered "parse died" flag (§5.2), None unless error_recovery.
    lost: Net | None = None


def predecessors(plan: ScanPlan) -> dict[Occurrence, list[Occurrence]]:
    """Each unit's enabling units, in unit order."""
    preds: dict[Occurrence, list[Occurrence]] = {u: [] for u in plan.units}
    for source in plan.units:
        for target in plan.successors[source]:
            preds[target].append(source)
    return preds


def build_scanner(
    netlist: Netlist,
    decoders: DecoderBank,
    grammar: Grammar,
    options: WiringOptions | None = None,
) -> WiredScanner:
    """Instantiate and wire every tokenizer of ``grammar``."""
    options = options or WiringOptions()
    if options.error_recovery and not options.tokenizer.track_liveness:
        options = replace(
            options, tokenizer=replace(options.tokenizer, track_liveness=True)
        )
    plan = build_scan_plan(grammar, options)
    if not plan.units:
        raise GenerationError("grammar has no terminal occurrences")

    # Pass 1: tokenizers against placeholder enables. Contexts of one
    # token share its Glushkov construction, not the hardware.
    instances: dict[Occurrence, TokenizerInstance] = {}
    enables: dict[Occurrence, Net] = {}
    always_on = options.start_mode == "always"
    for unit in plan.units:
        name = f"tok_{_sanitize(unit.terminal.name)}_{unit.context_name()}"
        if always_on and unit in plan.starts:
            enable: Net = netlist.const(1)
        else:
            enable = netlist.placeholder(f"{name}_en")
            enables[unit] = enable
        instances[unit] = build_tokenizer(
            netlist,
            decoders,
            grammar.lexspec.get(unit.terminal.name),
            enable,
            name,
            options=options.tokenizer,
            glushkov=plan.automata[unit.terminal.name],
        )

    # §5.2 error recovery: a registered flag that rises when no
    # tokenizer holds any state during valid streaming; it feeds back
    # into the start enables so parsing resumes past the error.
    lost: Net | None = None
    if options.error_recovery:
        liveness_nets = [
            inst.liveness
            for inst in instances.values()
            if inst.liveness is not None
        ]
        live = netlist.or_tree(liveness_nets, name="parser_live")
        lost = netlist.reg(
            netlist.and_(
                decoders.valid_cur, netlist.not_(live), name="parser_lost_d"
            ),
            name="parser_lost",
        )

    # Pass 2: drive the enables with predecessor detects + start logic.
    preds = predecessors(plan)
    for unit, enable in enables.items():
        sources: list[Net] = [instances[pred].detect for pred in preds[unit]]
        if unit in plan.starts:
            sources.append(decoders.start_pulse)
            if lost is not None:
                sources.append(lost)
        if not sources:
            # Token unreachable from the start symbol through the
            # follow graph — permanently disabled.
            netlist.drive_const(enable, 0)
            continue
        netlist.drive_or(enable, _dedupe(sources))

    return WiredScanner(plan=plan, instances=instances, lost=lost)


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


def _dedupe(nets: list[Net]) -> list[Net]:
    seen: set[int] = set()
    unique: list[Net] = []
    for net in nets:
        if net.uid not in seen:
            seen.add(net.uid)
            unique.append(net)
    return unique


# ----------------------------------------------------------------------
# conflict estimation for the equation-5 priority encoder
# ----------------------------------------------------------------------
def estimate_conflict_groups(
    scanner: WiredScanner,
) -> list[list[int]]:
    """Sets of encoder inputs that may assert simultaneously.

    "One solution to the conflict is to divide the set into multiple
    sets; where each subset contains all of the tokens that can
    possibly be asserted at any one time." (§3.4)

    Units collide when one step detects them together.  The closed
    product automaton (:func:`~repro.core.scanir.scan_ir_for`) lists
    every step's events, end-of-data's included, so its event lists
    are the exact answer.  Past its state cap, every two units whose
    final pattern positions share a byte are grouped (simultaneous
    matches end on one byte): an over-approximation, which is safe — a
    group may be split further but must never miss a real conflict.
    Groups are ordered lowest priority first, with more specific
    patterns (smaller alphabets) given higher priority.
    """
    plan = scanner.plan
    units = plan.units
    ir = scan_ir_for(scanner)
    if ir is not None:
        together = [[u for u, _q in e[0]] for e in ir.effects[1:] if e[0]]
    else:
        last = [
            set().union(*(auto.position_bytes[p] for p in auto.last))
            for auto in (plan.automata[u.terminal.name] for u in units)
        ]
        together = [
            [i, j]
            for i in range(len(units))
            for j in range(i + 1, len(units))
            if last[i] & last[j]
        ]

    # Union-find over colliding units.
    parent = list(range(len(units)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for first, *rest in together:
        for other in rest:
            parent[find(other)] = find(first)

    groups: dict[int, list[int]] = {}
    for i in range(len(units)):
        groups.setdefault(find(i), []).append(i)

    def specificity(index: int) -> int:
        return len(alphabet(plan.automata[units[index].terminal.name].pattern))

    result = []
    for members in groups.values():
        if len(members) < 2:
            continue
        # Lowest priority first: broader patterns (larger alphabets)
        # are less specific, so they get lower priority.
        members.sort(key=specificity, reverse=True)
        result.append(members)
    return result
