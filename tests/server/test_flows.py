"""The flow lifecycle table, without sockets.

``repro.server.flows`` is sans-IO, so the whole policy is checked here
as data: every (kind, state, frame type) cell against a literal
expected table, the admission order, the reply and error halves, and a
Hypothesis run of random inbound sequences against a ten-line
reference model. Imports neither the scan kernel nor NumPy.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.flows import BEAM, KINDS, OPENERS, SCAN
from repro.server.flows import Flow, FlowTable, Refused
from repro.server.protocol import (
    CONNECTION_FLOW,
    ErrorCode,
    Frame,
    FrameType,
    ProtocolError,
)

#: The single-lane mask frame types protocol v3 retired: unassigned
#: now, so fatal to the connection like any byte no type has.
RETIRED = {0x08: "OPEN_MASK", 0x09: "ADVANCE", 0x0A: "MASK"}
FRAME_TYPES = sorted(FrameType.NAMES)
NAME = {**FrameType.NAMES, **RETIRED}


class _Flow(Flow):
    def __init__(self, flow_id, kind):
        super().__init__(flow_id)
        self.kind = kind


def frame(ftype: int, flow_id: int = 7) -> Frame:
    return Frame(ftype, flow_id.to_bytes(4, "big") + b"\0" * 8)


def table_with(kind, state) -> tuple[FlowTable, _Flow | None]:
    table = FlowTable()
    if state == "absent":
        return table, None
    flow = _Flow(7, kind)
    table.open(flow)
    flow.finishing = state == "finishing"
    return table, flow


def outcome(table: FlowTable, ftype: int) -> str:
    """One inbound frame on flow 7, as the endpoint frame loop asks."""
    before = table.flows.get(7)
    try:
        if ftype in OPENERS:
            table.admit(frame(ftype), draining=False, full=None)
            return "admit"
        flow = table.route(frame(ftype))
    except Refused as refusal:
        assert refusal.flow_id == 7
        assert refusal.closed is (None if 7 in table.flows else before)
        code = ErrorCode.NAMES[refusal.code]
        return code + ("+closed" if refusal.closed is not None else "")
    except ProtocolError:
        assert table.flows.get(7) is before
        return "fatal"
    assert flow is before and table.flows[7] is flow
    return "finishing" if flow.finishing else "open"


# What each frame type does to flow 7, by the state flow 7 is in.
# "fatal": a frame no client may send (ProtocolError, connection-level);
# "+closed": the refusal closed the flow that was there.
DUP = "DUPLICATE_FLOW+closed"
UNK = "UNKNOWN_FLOW"
BAD = "BAD_FRAME+closed"
FATAL = ("fatal",) * 4
EXPECTED = {
    #                 absent   scan   beam    finishing (any kind)
    "HELLO":         FATAL,
    "OPEN_FLOW":     ("admit", DUP, DUP, DUP),
    "DATA":          (UNK, "open", BAD, UNK),
    "FINISH_FLOW":   (UNK, "finishing", "finishing", UNK),
    "RESULT":        FATAL,
    "ERROR":         FATAL,
    "GOODBYE":       FATAL,
    "OPEN_MASK":     FATAL,
    "ADVANCE":       FATAL,
    "MASK":          FATAL,
    "OPEN_BEAM":     ("admit", DUP, DUP, DUP),
    "BATCH_ADVANCE": (UNK, BAD, "open", UNK),
    "MASKS":         FATAL,
}


def test_expected_table_names_every_frame_type():
    assert len(FrameType.NAMES) == 10
    assert not set(RETIRED) & set(FrameType.NAMES)
    assert sorted(EXPECTED) == sorted(NAME.values())


@pytest.mark.parametrize("ftype", sorted(NAME), ids=NAME.get)
def test_kind_state_frame_matrix(ftype):
    absent, scan, beam, finishing = EXPECTED[NAME[ftype]]
    assert outcome(table_with(None, "absent")[0], ftype) == absent
    for kind, expected in ((SCAN, scan), (BEAM, beam)):
        assert outcome(table_with(kind, "open")[0], ftype) == expected, kind
        got = outcome(table_with(kind, "finishing")[0], ftype)
        assert got == finishing, kind


def test_admission_order():
    """Id checks first (a colliding open closes the flow, whatever
    else is wrong), then REDIRECT, then DRAINING, then the quota."""
    open_flow = frame(FrameType.OPEN_FLOW)

    def refused(table, opener=open_flow, draining=False, full=None, to=None):
        with pytest.raises(Refused) as info:
            table.admit(opener, draining, full, to)
        return info.value

    table, flow = table_with(BEAM, "open")
    refusal = refused(table, draining=True, full="quota spent")
    assert refusal.code == ErrorCode.DUPLICATE_FLOW
    assert refusal.closed is flow and not table.flows

    reserved = frame(FrameType.OPEN_BEAM, CONNECTION_FLOW)
    refusal = refused(table, reserved, draining=True, full="quota spent")
    assert refusal.code == ErrorCode.DUPLICATE_FLOW
    assert refusal.closed is None

    refusal = refused(table, draining=True, full="x", to="the ring: h:1")
    assert (refusal.code, str(refusal), refusal.closed) == (
        ErrorCode.REDIRECT, "the ring: h:1", None,
    )
    refusal = refused(table, draining=True, full="quota spent")
    assert refusal.code == ErrorCode.DRAINING
    refusal = refused(table, full="quota spent")
    assert (refusal.code, str(refusal)) == (
        ErrorCode.OVERLOADED, "quota spent",
    )
    assert not table.flows
    for opener in OPENERS:  # one admission for every kind
        assert refused(table, frame(opener), full="x").code == (
            ErrorCode.OVERLOADED
        )
        assert table.admit(frame(opener), False, None) == 7


def test_truncated_flow_id_is_connection_fatal():
    table = FlowTable()
    with pytest.raises(ProtocolError) as info:
        table.admit(Frame(FrameType.OPEN_FLOW, b"\0\0"), False, None)
    assert not isinstance(info.value, Refused)
    with pytest.raises(ProtocolError) as info:
        table.route(Frame(FrameType.DATA, b"\0\0"))
    assert not isinstance(info.value, Refused)


def test_replies_reach_only_the_kinds_that_take_them():
    delivered = {
        (kind, NAME[ftype])
        for kind in KINDS
        for ftype in FRAME_TYPES
        if table_with(kind, "open")[0].reply(frame(ftype)) is not None
    }
    assert delivered == {
        (SCAN, "RESULT"),
        (BEAM, "RESULT"), (BEAM, "MASKS"),
    }
    assert FlowTable().reply(frame(FrameType.RESULT)) is None


def test_only_bad_token_on_beam_leaves_a_flow_open():
    survived = set()
    for kind in KINDS:
        for code, name in ErrorCode.NAMES.items():
            table, flow = table_with(kind, "open")
            closed = table.fault(flow, code)
            assert closed == (7 not in table.flows)
            if not closed:
                survived.add((kind, name))
    assert survived == {(BEAM, "BAD_TOKEN")}


def test_close_is_by_identity():
    """A stale flow object cannot close the flow that reused its id."""
    table, old = table_with(SCAN, "open")
    table.close(old)
    new = _Flow(7, BEAM)
    table.open(new)
    table.close(old)
    assert table.fault(old, ErrorCode.INTERNAL) and table.flows == {7: new}


# ----------------------------------------------------------------------
# random inbound sequences against a reference model
# ----------------------------------------------------------------------
def model_step(model: dict, ftype: int, flow_id: int, refusing: bool):
    """The reference: ``model`` maps flow id -> [kind, finishing]."""
    kind = OPENERS.get(ftype)
    if kind is not None:
        if model.pop(flow_id, None) is None and not refusing:
            if flow_id != CONNECTION_FLOW:
                model[flow_id] = [kind, False]
    elif flow_id in model and not model[flow_id][1]:
        if ftype not in model[flow_id][0].ops:
            del model[flow_id]
        elif ftype == FrameType.FINISH_FLOW:
            model[flow_id][1] = True


inbound = st.tuples(
    st.sampled_from(sorted(NAME) + ["final"]),
    st.sampled_from([1, 2, 3, CONNECTION_FLOW]),
    st.booleans(),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(inbound, max_size=60))
def test_random_sequences_match_the_reference_model(steps):
    table, model = FlowTable(), {}
    for ftype, flow_id, draining, full in steps:
        if ftype == "final":  # the server closes a finishing flow
            flow = table.flows.get(flow_id)
            if flow is not None and flow.finishing:
                table.close(flow)
                del model[flow_id]
            continue
        kind = OPENERS.get(ftype)
        try:
            if kind is not None:
                admitted = table.admit(
                    frame(ftype, flow_id), draining, "full" if full else None
                )
                table.open(_Flow(admitted, kind))
            else:
                table.route(frame(ftype, flow_id))
        except Refused:
            pass
        except ProtocolError:  # not a client's frame: nothing moved
            assert kind is None and not any(ftype in k.ops for k in KINDS)
            continue
        model_step(model, ftype, flow_id, draining or full)
        assert {
            fid: [flow.kind, flow.finishing]
            for fid, flow in table.flows.items()
        } == model
