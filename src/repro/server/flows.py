"""The flow lifecycle, written down once (sans-IO).

A connection multiplexes *flows* of two kinds — scan and beam (a
decode of any width; a single decode is a beam of width 1) — and every
flow lives the same small automaton: an opening frame admits it, op
frames drive it, ``FINISH_FLOW`` starts its close, the final
``RESULT`` (or a fatal ``ERROR``) ends it. Server, proxy and client
all walk that automaton; this module owns it, as data plus one
per-connection :class:`FlowTable`, the way
:class:`~repro.server.protocol.FrameDecoder` owns the framing:

==========  ============  ==========================  ==================
kind        opened by     ops (client → server)       replies
==========  ============  ==========================  ==================
``scan``    OPEN_FLOW     DATA, FINISH_FLOW           RESULT
``beam``    OPEN_BEAM     BATCH_ADVANCE, FINISH_FLOW  MASKS, RESULT
==========  ============  ==========================  ==================

**Inbound** (:meth:`FlowTable.admit`, :meth:`FlowTable.route`): a frame
is accepted — the call returns, allocating nothing — or refused with
the one typed :class:`Refused`, which names the ``ERROR`` to send and
the flow the refusal closed, if it closed one:

* an opening frame whose id is ``CONNECTION_FLOW`` or already open is
  ``DUPLICATE_FLOW``, and the colliding open *closes the existing
  flow*; then, in this order, ``REDIRECT`` when flows of that kind
  open elsewhere (a proxy's scan flows, on its ring), ``DRAINING``
  while the endpoint drains and ``OVERLOADED`` when it is at a quota —
  one admission, the same for every kind;
* an op on an id that is not open, or whose FINISH_FLOW was already
  taken, is ``UNKNOWN_FLOW`` (nothing to close);
* an op its flow's kind does not take (DATA on a beam flow,
  BATCH_ADVANCE on a scan flow) is ``BAD_FRAME`` and closes the flow;
* any other frame type is not a client's to send: a plain
  :class:`~repro.server.protocol.ProtocolError`, fatal to the
  connection.

**Errors** (:meth:`FlowTable.fault`): an ``ERROR`` addressed to a flow
closes it on both ends, except the codes its kind *survives* — only
``BAD_TOKEN`` on a beam flow, whose engine is atomic (the refused op
moved nothing). **Replies** (:meth:`FlowTable.reply`): a reply frame is
delivered to its flow when the flow is open and its kind receives that
frame type, and dropped otherwise.
"""

from __future__ import annotations

import struct

from repro.server.protocol import (
    CONNECTION_FLOW,
    ErrorCode,
    Frame,
    FrameType,
    ProtocolError,
)

__all__ = [
    "BEAM",
    "Flow",
    "FlowKind",
    "FlowTable",
    "KINDS",
    "LIFECYCLE_CODES",
    "OPENERS",
    "Refused",
    "SCAN",
    "flow_id_of",
]

_FLOW_ID = struct.Struct("!I")


def flow_id_of(frame: Frame) -> int:
    """The u32 flow id every flow-addressed frame leads with."""
    try:
        return _FLOW_ID.unpack_from(frame.payload)[0]
    except struct.error:
        raise ProtocolError(f"truncated {frame.name} frame") from None


class FlowKind(str):
    """One row of the lifecycle table; its value is the kind's name
    (``"scan"``, ``"beam"``)."""

    #: The frame type that opens a flow of this kind.
    opener: int
    #: The frame types a client may send on an open flow of this kind.
    ops: frozenset
    #: The frame types a client may receive on one.
    replies: frozenset
    #: ERROR codes that leave a flow of this kind open.
    survives: frozenset

    def __new__(
        cls, name: str, opener: int, op: int, reply: int, survives=()
    ) -> "FlowKind":
        kind = super().__new__(cls, name)
        kind.opener = opener
        kind.ops = frozenset((op, FrameType.FINISH_FLOW))
        kind.replies = frozenset((reply, FrameType.RESULT))
        kind.survives = frozenset(survives)
        return kind


SCAN = FlowKind("scan", FrameType.OPEN_FLOW, FrameType.DATA, FrameType.RESULT)
BEAM = FlowKind(
    "beam",
    FrameType.OPEN_BEAM,
    FrameType.BATCH_ADVANCE,
    FrameType.MASKS,
    survives=(ErrorCode.BAD_TOKEN,),
)
KINDS = (SCAN, BEAM)
#: ERROR codes that end a flow for its endpoint's sake, not its own: a
#: routing tier replays the flow on another member.
LIFECYCLE_CODES = (ErrorCode.DRAINING, ErrorCode.IDLE_TIMEOUT)

#: Opening frame type -> the kind it opens.
OPENERS = {kind.opener: kind for kind in KINDS}
_OP_FRAMES = frozenset().union(*(kind.ops for kind in KINDS))


class Refused(ProtocolError):
    """A frame the lifecycle does not accept: answer it with
    ``ERROR(flow_id, code)``. ``closed`` is the flow the refusal
    closed — already out of the table, its owner releases what it
    held — or None when it closed nothing."""

    def __init__(
        self, flow_id: int, code: int, message: str, closed=None
    ) -> None:
        super().__init__(message, code)
        self.flow_id = flow_id
        self.closed = closed


class Flow:
    """What the table keeps per open flow; each endpoint subclasses it
    with the state its side of the flow needs."""

    __slots__ = ("flow_id", "finishing")

    kind: FlowKind

    def __init__(self, flow_id: int) -> None:
        self.flow_id = flow_id
        #: FINISH_FLOW taken; the flow closes with its final RESULT.
        self.finishing = False


class FlowTable:
    """One connection's open flows, and the lifecycle rules over them."""

    __slots__ = ("flows",)

    def __init__(self) -> None:
        self.flows: dict[int, Flow] = {}

    # -- inbound: frames a client sent ---------------------------------
    def admit(
        self, frame: Frame, draining: bool, full: str | None,
        redirect: str | None = None,
    ) -> int:
        """The flow id an opening frame may open (the caller builds the
        flow and :meth:`open`\\ s it). ``full`` says why no new flow
        fits — the quota that is spent — or is None when one does;
        ``redirect`` where flows of the frame's kind open instead, or
        None when they open here."""
        flow_id = flow_id_of(frame)
        existing = self.flows.pop(flow_id, None)
        if existing is not None or flow_id == CONNECTION_FLOW:
            raise Refused(
                flow_id,
                ErrorCode.DUPLICATE_FLOW,
                f"flow {flow_id} already open",
                existing,
            )
        if redirect is not None:
            raise Refused(flow_id, ErrorCode.REDIRECT, redirect)
        if draining:
            raise Refused(
                flow_id, ErrorCode.DRAINING, "draining; new flows refused"
            )
        if full is not None:
            raise Refused(flow_id, ErrorCode.OVERLOADED, full)
        return flow_id

    def open(self, flow: Flow) -> None:
        self.flows[flow.flow_id] = flow

    def route(self, frame: Frame) -> Flow:
        """The open flow an op frame drives."""
        ftype = frame.type
        flow_id = flow_id_of(frame)
        flow = self.flows.get(flow_id)
        if flow is not None and ftype in flow.kind.ops and not flow.finishing:
            if ftype == FrameType.FINISH_FLOW:
                flow.finishing = True
            return flow
        if ftype not in _OP_FRAMES:
            raise ProtocolError(f"unexpected {frame.name} frame from client")
        if flow is None or flow.finishing:
            raise Refused(
                flow_id,
                ErrorCode.UNKNOWN_FLOW,
                f"{frame.name} for unopened flow {flow_id}",
            )
        del self.flows[flow_id]
        raise Refused(
            flow_id,
            ErrorCode.BAD_FRAME,
            f"{frame.name} not valid on a {flow.kind} flow",
            flow,
        )

    # -- both directions -------------------------------------------------
    def close(self, flow: Flow) -> None:
        """``flow`` ended (its final RESULT went out or came in)."""
        if self.flows.get(flow.flow_id) is flow:
            del self.flows[flow.flow_id]

    def fault(self, flow: Flow, code: int) -> bool:
        """``ERROR(code)`` was sent or received on ``flow``; True when
        that closed it."""
        if code in flow.kind.survives:
            return False
        self.close(flow)
        return True

    # -- outbound: frames a server sent ----------------------------------
    def reply(self, frame: Frame) -> Flow | None:
        """The flow a reply frame is delivered to; None drops it."""
        flow = self.flows.get(flow_id_of(frame))
        if flow is None or frame.type not in flow.kind.replies:
            return None
        return flow
