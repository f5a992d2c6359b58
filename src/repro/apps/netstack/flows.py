"""TCP byte-stream reassembly (TCP-Splitter style, refs [29][30]).

A passive monitor, not an endpoint: it tracks each flow's expected
sequence number, buffers out-of-order segments, drops duplicates and
retransmissions of already-delivered bytes, and hands the application
layer an in-order byte stream per flow — exactly the service the
paper's tagger would consume on the FPX.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.netstack.packets import Packet, TCPHeader

_SEQ_MOD = 1 << 32


@dataclass(frozen=True)
class FlowKey:
    """The classic 4-tuple identifying one direction of a connection."""

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int

    @classmethod
    def of(cls, packet: Packet) -> "FlowKey":
        return cls(
            src_ip=packet.ip.src,
            src_port=packet.tcp.src_port,
            dst_ip=packet.ip.dst,
            dst_port=packet.tcp.dst_port,
        )

    def __str__(self) -> str:
        return (
            f"{self.src_ip}:{self.src_port}->{self.dst_ip}:{self.dst_port}"
        )


@dataclass
class _FlowState:
    expected: int | None = None  # next in-order sequence number
    pending: dict[int, bytes] = field(default_factory=dict)
    finished: bool = False


@dataclass
class ReassemblyStats:
    """Counters a monitor would export."""

    packets: int = 0
    in_order: int = 0
    out_of_order: int = 0
    duplicates: int = 0
    flows: int = 0


class TCPReassembler:
    """Per-flow in-order delivery of TCP payload bytes.

    :meth:`push` consumes a packet and returns the (possibly empty)
    chunk of newly in-order payload for that packet's flow.

    Example
    -------
    >>> from repro.apps.netstack.packets import IPv4Header, Packet, TCPHeader
    >>> r = TCPReassembler()
    >>> ip = IPv4Header(src="10.0.0.1", dst="10.0.0.2")
    >>> syn = Packet(ip, TCPHeader(1000, 80, seq=7, flags=TCPHeader.SYN))
    >>> _ = r.push(syn)
    >>> key, data = r.push(Packet(ip, TCPHeader(1000, 80, seq=8), b"hi"))
    >>> data
    b'hi'
    """

    def __init__(self, max_pending_per_flow: int = 256) -> None:
        self.flows: dict[FlowKey, _FlowState] = {}
        self.max_pending = max_pending_per_flow
        self.stats = ReassemblyStats()

    # ------------------------------------------------------------------
    def push(self, packet: Packet) -> tuple[FlowKey, bytes]:
        """Consume one packet; return newly in-order bytes for its flow."""
        key = FlowKey.of(packet)
        state = self.flows.get(key)
        if state is None:
            state = _FlowState()
            self.flows[key] = state
            self.stats.flows += 1
        self.stats.packets += 1
        tcp = packet.tcp

        if tcp.flags & TCPHeader.SYN:
            state.expected = (tcp.seq + 1) % _SEQ_MOD
            state.pending.clear()
            return key, b""
        if state.expected is None:
            # Mid-stream capture: synchronize on the first data seen.
            state.expected = tcp.seq

        delivered = bytearray()
        if packet.payload:
            self._stash(state, tcp.seq, packet.payload)
            delivered += self._drain(state)
        if tcp.flags & TCPHeader.FIN:
            state.finished = True
        return key, bytes(delivered)

    def _stash(self, state: _FlowState, seq: int, payload: bytes) -> None:
        offset = (seq - state.expected) % _SEQ_MOD
        if offset >= _SEQ_MOD // 2:
            # Entirely before the expected point: retransmission of
            # delivered data (possibly with a new tail).
            behind = _SEQ_MOD - offset
            if behind >= len(payload):
                self.stats.duplicates += 1
                return
            payload = payload[behind:]
            offset = 0
        seq = (state.expected + offset) % _SEQ_MOD
        existing = state.pending.get(seq)
        if existing is not None and len(existing) >= len(payload):
            self.stats.duplicates += 1
            return
        if offset == 0:
            self.stats.in_order += 1
        else:
            self.stats.out_of_order += 1
        if len(state.pending) >= self.max_pending:
            # Bounded buffering, as hardware would have.
            oldest = max(
                state.pending, key=lambda s: (s - state.expected) % _SEQ_MOD
            )
            del state.pending[oldest]
        state.pending[seq] = payload

    def _drain(self, state: _FlowState) -> bytes:
        out = bytearray()
        while True:
            segment = state.pending.pop(state.expected, None)
            if segment is None:
                # A overlapping earlier segment may cover expected.
                segment = self._overlapping(state)
                if segment is None:
                    break
            out += segment
            state.expected = (state.expected + len(segment)) % _SEQ_MOD
        return bytes(out)

    def _overlapping(self, state: _FlowState) -> bytes | None:
        """Find a stashed segment that straddles the expected point."""
        for seq, payload in sorted(state.pending.items()):
            offset = (state.expected - seq) % _SEQ_MOD
            if 0 < offset < len(payload):
                del state.pending[seq]
                return payload[offset:]
        return None

    # ------------------------------------------------------------------
    def finished(self, key: FlowKey) -> bool:
        state = self.flows.get(key)
        return bool(state and state.finished)
