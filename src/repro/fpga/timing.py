"""Static timing analysis over the mapped LUT network.

Reproduces the paper's §4.3 timing observations: for small grammars the
clock is set by the pipelined logic (one LUT between registers); as the
grammar grows, "the critical paths … are entirely routing delay
associated with the large fanout of the decoded character bits as they
are routed to each of the tokens".

The model: the arrival time of a LUT output is the LUT delay plus the
worst (leaf arrival + leaf routing delay) over its inputs; routing
delay is the device's linear function of the *mapped* fanout of the
driving net. The clock period is the worst register-to-register (or
port-to-register) arrival plus the lumped FF overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fpga.device import Device
from repro.fpga.techmap import TechMapResult
from repro.rtl.netlist import Gate


@dataclass
class PathSegment:
    """One hop of the critical path, for reporting."""

    net: str
    fanout: int
    route_ns: float
    lut_ns: float


@dataclass
class TimingReport:
    """Result of static timing analysis on one device."""

    device: Device
    period_ns: float
    frequency_mhz: float
    bandwidth_gbps: float
    #: nets ranked by their routing-delay contribution
    worst_nets: list[PathSegment] = field(default_factory=list)
    critical_kind: str = "logic"

    def summary(self) -> str:
        worst = self.worst_nets[0] if self.worst_nets else None
        detail = (
            f"; critical net {worst.net} fanout {worst.fanout} "
            f"route {worst.route_ns:.2f} ns"
            if worst
            else ""
        )
        return (
            f"{self.device.name}: {self.frequency_mhz:.0f} MHz "
            f"({self.period_ns:.2f} ns, {self.critical_kind}-bound)"
            f" = {self.bandwidth_gbps:.2f} Gbps{detail}"
        )


def analyze_timing(mapping: TechMapResult, device: Device) -> TimingReport:
    """Compute the clock period of a mapped design on ``device``.

    A byte is consumed per cycle, so bandwidth = frequency × 8 bits —
    the same arithmetic as the paper's Table 1 (533 MHz → 4.26 Gbps).
    """
    fanout = mapping.lut_fanout
    covered: dict[int, tuple[int, ...]] = {
        lut.output: lut.leaves for lut in mapping.luts if lut.output != -1
    }

    # Topological order over the covered LUT DAG (leaves may be other
    # covered nodes, register Qs, or primary inputs).
    order = _topo_order(covered)

    arrival: dict[int, float] = {}

    def leaf_arrival(uid: int) -> float:
        if uid in arrival:
            return arrival[uid]
        # Register Q or primary input: clock-to-Q is lumped into t_ff.
        return 0.0

    def leaf_route(uid: int) -> float:
        if uid < 0:
            return device.route_delay(1)  # synthetic internal net
        return device.route_delay(fanout.get(uid, 1))

    worst_segment: dict[int, PathSegment] = {}
    for uid in order:
        best = 0.0
        best_leaf = None
        for leaf in covered[uid]:
            candidate = leaf_arrival(leaf) + leaf_route(leaf)
            if candidate >= best:
                best = candidate
                best_leaf = leaf
        arrival[uid] = best + device.t_lut
        if best_leaf is not None:
            name = (
                mapping.netlist.nets[best_leaf].name
                if best_leaf >= 0
                else "(internal)"
            )
            worst_segment[uid] = PathSegment(
                net=name,
                fanout=fanout.get(best_leaf, 1) if best_leaf >= 0 else 1,
                route_ns=leaf_route(best_leaf),
                lut_ns=device.t_lut,
            )

    # Endpoints: register D/enable pins and output ports.
    live_register_qs = {
        reg.q.uid
        for reg in mapping.netlist.registers
    }
    period = device.t_ff + device.t_lut  # floor: empty FF->FF path
    critical_uid: int | None = None
    endpoints: list[int] = []
    for register in mapping.netlist.registers:
        if register.q.uid not in live_register_qs:
            continue
        for net in (register.d, register.enable):
            if net is not None:
                endpoints.append(net.uid)
    for net in mapping.netlist.outputs.values():
        endpoints.append(net.uid)

    roots = _root_map(mapping)
    for uid in endpoints:
        root = roots.get(uid, uid)
        path = leaf_arrival(root) + leaf_route(root) + device.t_ff
        if path > period:
            period = path
            critical_uid = root

    # Rank nets by routing contribution for the §4.3-style report.
    ranked = sorted(
        (
            PathSegment(
                net=mapping.netlist.nets[uid].name,
                fanout=f,
                route_ns=device.route_delay(f),
                lut_ns=device.t_lut,
            )
            for uid, f in fanout.items()
            if uid >= 0
        ),
        key=lambda seg: seg.route_ns,
        reverse=True,
    )

    critical_kind = "logic"
    if critical_uid is not None and critical_uid in worst_segment:
        segment = worst_segment[critical_uid]
        if segment.route_ns > segment.lut_ns:
            critical_kind = "routing"
    elif ranked and ranked[0].route_ns > device.t_lut:
        critical_kind = "routing"

    frequency = 1000.0 / period
    return TimingReport(
        device=device,
        period_ns=period,
        frequency_mhz=frequency,
        bandwidth_gbps=frequency * 8 / 1000.0,
        worst_nets=ranked[:10],
        critical_kind=critical_kind,
    )


def _topo_order(covered: dict[int, tuple[int, ...]]) -> list[int]:
    order: list[int] = []
    state: dict[int, int] = {}

    def visit(uid: int) -> None:
        stack = [(uid, iter(covered.get(uid, ())))]
        while stack:
            node, it = stack[-1]
            if state.get(node) == 2:
                stack.pop()
                continue
            state[node] = 1
            advanced = False
            for leaf in it:
                if leaf in covered and state.get(leaf, 0) == 0:
                    stack.append((leaf, iter(covered[leaf])))
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                order.append(node)
                stack.pop()

    for uid in covered:
        if state.get(uid, 0) == 0:
            visit(uid)
    return order


def _root_map(mapping: TechMapResult) -> dict[int, int]:
    """Collapse buffers/inverters so endpoints find their logic root."""
    netlist = mapping.netlist
    roots: dict[int, int] = {}

    def root_of(uid: int) -> int:
        cached = roots.get(uid)
        if cached is not None:
            return cached
        driver = netlist.nets[uid].driver
        if isinstance(driver, Gate) and driver.kind.value in ("buf", "not"):
            result = root_of(driver.inputs[0].uid)
        else:
            result = uid
        roots[uid] = result
        return result

    for register in netlist.registers:
        root_of(register.d.uid)
        if register.enable is not None:
            root_of(register.enable.uid)
    for net in netlist.outputs.values():
        root_of(net.uid)
    return roots
