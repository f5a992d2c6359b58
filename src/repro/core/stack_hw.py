"""Gate-level recursion checking (§5.2 in actual hardware).

The full RTN stack machine lives in :mod:`repro.core.stack` as the
behavioral model; this module builds the piece of it that maps
directly onto gates today: a **depth checker** for self-embedding
recursion. For a grammar with a production ``X → α X β`` (the
balanced-parenthesis grammar of Fig. 1 being the canonical case), the
recursion frames carry no data, so the §5.2 stack degenerates to the
counter stack of :func:`repro.rtl.stack.build_counter_stack`:

* a detect of a terminal in ``α`` pushes;
* a detect of a terminal in ``β`` pops;
* popping an empty stack raises a sticky ``stack_error`` — input like
  ``(0))`` is now *caught by the hardware*;
* ``stack_empty`` low when the stream ends exposes unclosed recursion
  like ``((0)``.

This upgrades the Fig. 2b finite automaton back toward the Fig. 2a
push-down automaton without giving up the streaming architecture.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.generator import TaggerCircuit
from repro.errors import GenerationError
from repro.grammar.cfg import Grammar
from repro.grammar.symbols import NonTerminal, Terminal
from repro.rtl.stack import StackPorts, build_counter_stack


def self_embedding_pairs(
    grammar: Grammar,
) -> tuple[frozenset[Terminal], frozenset[Terminal]]:
    """Derive (push, pop) terminal sets from self-embedding productions.

    A production ``X → α X β`` with non-empty ``α`` and ``β`` embeds
    ``X`` in itself; its ``α`` terminals open a recursion level and its
    ``β`` terminals close one. Raises when the grammar has no such
    production (nothing for a counter stack to track).
    """
    pushes: set[Terminal] = set()
    pops: set[Terminal] = set()
    for production in grammar.productions:
        for position, symbol in enumerate(production.rhs):
            if not isinstance(symbol, NonTerminal) or symbol != production.lhs:
                continue
            before = production.rhs[:position]
            after = production.rhs[position + 1 :]
            if not before or not after:
                continue  # plain left/right recursion, no embedding
            pushes.update(s for s in before if isinstance(s, Terminal))
            pops.update(s for s in after if isinstance(s, Terminal))
    if not pushes or not pops:
        raise GenerationError(
            f"grammar {grammar.name!r} has no self-embedding production; "
            "the counter-stack checker does not apply"
        )
    return frozenset(pushes), frozenset(pops)


@dataclass
class DepthCheckerPorts:
    """Output port names added to the tagger circuit."""

    stack_error: str
    stack_empty: str
    stack: StackPorts
    depth: int


def attach_depth_checker(
    circuit: TaggerCircuit,
    depth: int = 16,
    push_terminals: frozenset[Terminal] | None = None,
    pop_terminals: frozenset[Terminal] | None = None,
) -> DepthCheckerPorts:
    """Wire a counter stack onto a generated tagger's detect nets.

    Must be called before simulating the circuit (it extends the
    netlist). Adds two output ports:

    * ``stack_error`` — sticky; a closing token arrived with no open
      recursion level (underflow) or nesting exceeded ``depth``
      (overflow);
    * ``stack_empty`` — high when no recursion level is open; sampled
      after the final token it distinguishes balanced from unclosed
      input.
    """
    if push_terminals is None or pop_terminals is None:
        auto_push, auto_pop = self_embedding_pairs(circuit.grammar)
        push_terminals = push_terminals or auto_push
        pop_terminals = pop_terminals or auto_pop

    nl = circuit.netlist
    scanner = circuit.scanner

    def detects_of(terminals: frozenset[Terminal]):
        nets = [
            scanner.instances[occurrence].detect
            for occurrence in scanner.plan.units
            if occurrence.terminal in terminals
        ]
        if not nets:
            raise GenerationError(
                "no tokenizer detects for terminals "
                + ", ".join(sorted(t.name for t in terminals))
            )
        return nets

    push = nl.or_tree(detects_of(push_terminals), name="stk_push")
    pop = nl.or_tree(detects_of(pop_terminals), name="stk_pop")
    stack = build_counter_stack(nl, push, pop, depth=depth)

    error = nl.or_(stack.overflow, stack.underflow, name="stack_error")
    nl.output("stack_error", error)
    nl.output("stack_empty", stack.empty)
    nl.validate()
    return DepthCheckerPorts(
        stack_error="stack_error",
        stack_empty="stack_empty",
        stack=stack,
        depth=depth,
    )


@dataclass
class CheckedRun:
    """Outcome of a gate-level run with the depth checker attached."""

    events: list
    stack_error: bool
    balanced: bool

    @property
    def accepted(self) -> bool:
        """Balanced and error-free — the PDA verdict in hardware."""
        return self.balanced and not self.stack_error


def run_with_checker(circuit: TaggerCircuit, data: bytes) -> CheckedRun:
    """Simulate the checked circuit over ``data``; return the verdict."""
    from repro.core.tagger import GateLevelTagger
    from repro.rtl.simulator import stimulus_with_valid

    tagger = GateLevelTagger(circuit)
    simulator = tagger.simulator
    simulator.reset()
    frames = stimulus_with_valid(data, tagger._flush_cycles())
    latency = circuit.detect_latency
    events = []
    stack_error = False
    balanced = True
    for cycle, frame in enumerate(frames):
        outputs = simulator.step(frame)
        stack_error = bool(outputs["stack_error"])
        balanced = bool(outputs["stack_empty"])
        end = cycle - latency + 1
        if end < 1:
            continue
        for port, occurrence in tagger._occurrence_of_port.items():
            if outputs[port]:
                from repro.core.tagger import DetectEvent

                events.append(DetectEvent(occurrence, end))
    return CheckedRun(events=events, stack_error=stack_error, balanced=balanced)
