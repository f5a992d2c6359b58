"""Greedy 4-input LUT technology mapping.

Produces the "# of LUTs" column of the paper's Table 1 from the
generated netlist. The mapper follows standard FPGA synthesis
practice at the granularity the paper reports:

1. **Constant sweep** — constants are propagated through gates and
   registers (the encoder's padding subtrees disappear here, as they
   would in Synplify);
2. **Dead-logic sweep** — only cones reaching an output port or a live
   register survive;
3. **Polarity collapse** — inverters and buffers are absorbed into LUT
   inputs/outputs (LUTs implement any function of their inputs, so
   NOT/BUF are free);
4. **Decomposition** — wide AND/OR gates become balanced trees of
   ≤4-input nodes;
5. **Greedy covering** — single-fanout fanin nodes are absorbed into
   their consumer while the distinct-leaf count stays ≤ 4 (a light
   FlowMap-style packing).

Flip-flops ride in the same slice as a LUT on the target parts, so
registers add no LUTs; a register whose D input is a bare inverted
signal costs one pass-through LUT.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rtl.netlist import Gate, GateKind, Netlist, Register

#: Literal: (net uid, polarity). Polarity False = inverted.
_Lit = tuple[int, bool]


@dataclass
class LutNode:
    """One mapped LUT: a function of up to four leaf literals."""

    output: int  # net uid whose logic this LUT computes
    leaves: tuple[int, ...]  # leaf net uids (after polarity collapse)

    @property
    def n_inputs(self) -> int:
        return len(self.leaves)


@dataclass
class TechMapResult:
    """Outcome of mapping a netlist onto 4-input LUTs."""

    netlist: Netlist
    luts: list[LutNode]
    n_registers: int
    #: swept as constant or dead, for reporting
    n_swept_gates: int
    n_swept_registers: int
    #: mapped fanout per net uid: number of LUT/FF sinks after covering
    lut_fanout: dict[int, int] = field(default_factory=dict)

    @property
    def n_luts(self) -> int:
        return len(self.luts)

    def max_fanout(self) -> tuple[str, int]:
        """Highest-fanout net after mapping (name, fanout)."""
        if not self.lut_fanout:
            return ("", 0)
        uid = max(self.lut_fanout, key=lambda u: self.lut_fanout[u])
        return (self.netlist.nets[uid].name, self.lut_fanout[uid])

    def fanout_histogram(self, top: int = 10) -> list[tuple[str, int]]:
        ranked = sorted(
            self.lut_fanout.items(), key=lambda kv: kv[1], reverse=True
        )
        return [(self.netlist.nets[uid].name, f) for uid, f in ranked[:top]]


def techmap(netlist: Netlist, lut_inputs: int = 4) -> TechMapResult:
    """Map ``netlist`` onto ``lut_inputs``-input LUTs."""
    mapper = _Mapper(netlist, lut_inputs)
    return mapper.run()


class _Mapper:
    def __init__(self, netlist: Netlist, lut_inputs: int) -> None:
        self.netlist = netlist
        self.k = lut_inputs
        #: net uid -> 0/1 when known constant
        self.constants: dict[int, int] = {}
        #: net uid -> (root uid, polarity) after buffer/inverter collapse
        self.roots: dict[int, _Lit] = {}

    # ------------------------------------------------------------------
    def run(self) -> TechMapResult:
        self._sweep_constants()
        live_nets = self._mark_live()
        live_registers = [
            reg
            for reg in self.netlist.registers
            if reg.q.uid in live_nets and reg.q.uid not in self.constants
        ]

        nodes, node_inputs = self._decompose(live_nets)
        covered_roots = self._cover(nodes, node_inputs, live_registers)
        luts = [
            LutNode(output=uid, leaves=tuple(sorted(leaves)))
            for uid, leaves in covered_roots.items()
        ]

        # A live register fed by a bare inversion needs a route-through
        # LUT for the inverter (no logic node exists to host it).
        extra = 0
        for register in live_registers:
            uid, polarity = self._root_of(register.d.uid)
            if not polarity and uid not in covered_roots and uid not in self.constants:
                driver = self.netlist.nets[uid].driver
                if not isinstance(driver, Gate):
                    extra += 1
        for _ in range(extra):
            luts.append(LutNode(output=-1, leaves=()))

        fanout = self._mapped_fanout(covered_roots, live_registers, live_nets)
        return TechMapResult(
            netlist=self.netlist,
            luts=luts,
            n_registers=len(live_registers),
            n_swept_gates=len(self.netlist.gates)
            - sum(1 for g in self.netlist.gates if g.output.uid in live_nets),
            n_swept_registers=len(self.netlist.registers) - len(live_registers),
            lut_fanout=fanout,
        )

    # ------------------------------------------------------------------
    # pass 1: constants
    # ------------------------------------------------------------------
    def _sweep_constants(self) -> None:
        for net in self.netlist.nets:
            if net.driver == "const0":
                self.constants[net.uid] = 0
            elif net.driver == "const1":
                self.constants[net.uid] = 1
        changed = True
        while changed:
            changed = False
            for gate in self.netlist.gates:
                if gate.output.uid in self.constants:
                    continue
                value = self._gate_constant(gate)
                if value is not None:
                    self.constants[gate.output.uid] = value
                    changed = True
            for register in self.netlist.registers:
                if register.q.uid in self.constants:
                    continue
                d_const = self.constants.get(register.d.uid)
                # A register whose D is constant and equal to its init
                # value never changes; synthesis sweeps it.
                if d_const is not None and d_const == register.init:
                    self.constants[register.q.uid] = d_const
                    changed = True

    def _gate_constant(self, gate: Gate) -> int | None:
        values = [self.constants.get(n.uid) for n in gate.inputs]
        if gate.kind is GateKind.AND:
            if any(v == 0 for v in values):
                return 0
            if all(v == 1 for v in values):
                return 1
        elif gate.kind is GateKind.OR:
            if any(v == 1 for v in values):
                return 1
            if all(v == 0 for v in values):
                return 0
        elif gate.kind is GateKind.NOT:
            if values[0] is not None:
                return 1 - values[0]
        elif gate.kind is GateKind.BUF:
            if values[0] is not None:
                return values[0]
        elif gate.kind is GateKind.XOR:
            if None not in values:
                return values[0] ^ values[1]
        return None

    # ------------------------------------------------------------------
    # pass 2: liveness from outputs
    # ------------------------------------------------------------------
    def _mark_live(self) -> set[int]:
        live: set[int] = set()
        stack = [net.uid for net in self.netlist.outputs.values()]
        while stack:
            uid = stack.pop()
            if uid in live or uid in self.constants:
                continue
            live.add(uid)
            driver = self.netlist.nets[uid].driver
            if isinstance(driver, Gate):
                stack.extend(n.uid for n in driver.inputs)
            elif isinstance(driver, Register):
                stack.append(driver.d.uid)
                if driver.enable is not None:
                    stack.append(driver.enable.uid)
        return live

    # ------------------------------------------------------------------
    # pass 3+4: polarity collapse and decomposition
    # ------------------------------------------------------------------
    def _root_of(self, uid: int) -> _Lit:
        cached = self.roots.get(uid)
        if cached is not None:
            return cached
        driver = self.netlist.nets[uid].driver
        result: _Lit
        if isinstance(driver, Gate) and driver.kind is GateKind.BUF:
            root, polarity = self._root_of(driver.inputs[0].uid)
            result = (root, polarity)
        elif isinstance(driver, Gate) and driver.kind is GateKind.NOT:
            root, polarity = self._root_of(driver.inputs[0].uid)
            result = (root, not polarity)
        else:
            result = (uid, True)
        self.roots[uid] = result
        return result

    def _decompose(
        self, live_nets: set[int]
    ) -> tuple[list[int], dict[int, list[int]]]:
        """Build ≤k-input logic nodes for every live AND/OR/XOR gate.

        Returns (topo-ordered node uids, node -> fanin root uids).
        Wide gates introduce synthetic intermediate nodes (fresh
        negative uids) arranged as balanced trees.
        """
        node_inputs: dict[int, list[int]] = {}
        order: list[int] = []
        synthetic = -2  # -1 reserved for inverter route-throughs

        for gate in self.netlist.levelize():
            uid = gate.output.uid
            if uid not in live_nets or uid in self.constants:
                continue
            if gate.kind in (GateKind.BUF, GateKind.NOT):
                continue  # collapsed into polarity
            literals: list[_Lit] = []
            for net in gate.inputs:
                if net.uid in self.constants:
                    continue  # identity after the constant sweep
                literals.append(self._root_of(net.uid))
            if len(literals) == 1 and gate.kind in (GateKind.AND, GateKind.OR):
                # Identity after constant stripping: alias, not a LUT.
                self.roots[uid] = literals[0]
                continue
            fanins = list(dict.fromkeys(root for root, _pol in literals))
            # Balanced tree decomposition down to <= k inputs.
            while len(fanins) > self.k:
                grouped: list[int] = []
                for i in range(0, len(fanins), self.k):
                    chunk = fanins[i : i + self.k]
                    if len(chunk) == 1:
                        grouped.append(chunk[0])
                        continue
                    node_inputs[synthetic] = chunk
                    order.append(synthetic)
                    grouped.append(synthetic)
                    synthetic -= 1
                fanins = grouped
            node_inputs[uid] = fanins
            order.append(uid)
        return order, node_inputs

    # ------------------------------------------------------------------
    # pass 5: greedy covering
    # ------------------------------------------------------------------
    def _cover(
        self,
        order: list[int],
        node_inputs: dict[int, list[int]],
        live_registers: list[Register],
    ) -> dict[int, set[int]]:
        # Fanout among logic nodes + register/output sinks.
        fanout: dict[int, int] = {uid: 0 for uid in order}
        for fanins in node_inputs.values():
            for fanin in fanins:
                if fanin in fanout:
                    fanout[fanin] += 1
        for register in live_registers:
            for net in (register.d, register.enable):
                if net is None:
                    continue
                root, _ = self._root_of(net.uid)
                if root in fanout:
                    fanout[root] += 1
        for net in self.netlist.outputs.values():
            root, _ = self._root_of(net.uid)
            if root in fanout:
                fanout[root] += 1

        absorbed: set[int] = set()
        leaves_of: dict[int, set[int]] = {}
        for uid in order:
            # Start from direct fanins; try to pull in single-fanout
            # logic fanins whole (their own leaf sets).
            current: set[int] = set()
            for fanin in node_inputs[uid]:
                if fanin in leaves_of and fanout.get(fanin, 0) == 1:
                    # Tentatively absorbable — handled below.
                    current.add(fanin)
                else:
                    current.add(fanin)
            # Greedy absorption loop.
            improved = True
            while improved:
                improved = False
                for candidate in sorted(current):
                    if candidate not in leaves_of or candidate in absorbed:
                        continue
                    if fanout.get(candidate, 0) != 1:
                        continue
                    merged = (current - {candidate}) | leaves_of[candidate]
                    if len(merged) <= self.k:
                        current = merged
                        absorbed.add(candidate)
                        improved = True
                        break
            leaves_of[uid] = current

        return {
            uid: leaves
            for uid, leaves in leaves_of.items()
            if uid not in absorbed
        }

    # ------------------------------------------------------------------
    def _mapped_fanout(
        self,
        covered: dict[int, set[int]],
        live_registers: list[Register],
        live_nets: set[int],
    ) -> dict[int, int]:
        fanout: dict[int, int] = {}

        def bump(uid: int) -> None:
            if uid >= 0:  # synthetic nodes have no physical net
                fanout[uid] = fanout.get(uid, 0) + 1

        for leaves in covered.values():
            for leaf in leaves:
                bump(leaf)
        for register in live_registers:
            for net in (register.d, register.enable):
                if net is None:
                    continue
                root, _ = self._root_of(net.uid)
                bump(root)
        return fanout
