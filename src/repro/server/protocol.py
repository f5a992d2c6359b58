"""The framed wire protocol spoken between scan clients and servers.

The paper's device sits on a wire: bytes arrive framed (AAL5/IP in the
FPX papers), are tagged in-stream, and leave with routing decisions
attached. This module is that wire for the software reproduction — a
minimal, versioned, length-prefixed framing over TCP, sans-IO so the
same encoder/decoder drives the asyncio server, the client library,
and plain in-memory tests.

Framing
-------
Every frame is ``u32 length (big endian) | u8 type | payload`` where
``length`` counts the type byte plus the payload. A receiver enforces
its ``max_frame`` limit *before* reading the body, so an oversized
length can never make it buffer unboundedly.

Frame types::

    HELLO        !HI   version, max_frame + lists (both directions, first)
    OPEN_FLOW    !I    flow_id
    DATA         !I    flow_id + raw bytes
    FINISH_FLOW  !I    flow_id
    RESULT       !IB   flow_id, final + one record block (see below)
    ERROR        !IH   flow_id, code + utf-8 message
    GOODBYE      (empty)
    OPEN_BEAM    !IH   flow_id, width + 32-byte vocab sha256
    BATCH_ADVANCE !IB  flow_id, op + op payload (see below)
    MASKS        !IHH  flow_id, n_lanes, row_bytes + per-lane records

Type codes run 0x01 (HELLO) to 0x0D (MASKS) in the order listed,
skipping 0x08-0x0A: those are unassigned, and a frame of an
unassigned type is fatal to the connection.

The beam frames carry constrained-decoding flows: the client opens a
beam of ``width`` decode lanes against a vocabulary it has precomputed
masks for (``repro structgen precompute``); a single decode is a beam
of width 1. OPEN_BEAM binds the lanes (all at the start state) to a
mask table and is answered by a MASKS frame; each BATCH_ADVANCE
mutates every lane at once and is answered by one MASKS frame. Mask
rows are raw packed bits (token id ``i`` is bit ``i``, LSB-first per
byte). The op byte selects the mutation::

    op 0  ADVANCE   width × u32 token ids (one per lane, in order)
    op 1  FORK      !I lane — duplicate that lane (width grows by 1)
    op 2  ROLLBACK  !I k — undo the last k advances/forks beam-wide

A MASKS frame carries one record per lane: ``!IB state, kind`` then a
kind-dependent body. Kind 0 (full) is the ``row_bytes`` packed row;
kind 1 (delta) is ``!H count`` then ``count`` 3-byte XOR patch
entries (``!HB`` byte offset, XOR value) against the *previous MASKS
row the server sent for that lane index* — new lanes (opens, forks,
width growth on rollback) are always sent full, and the server falls
back to full whenever the patch would not be smaller (the resync
escape, also the recovery path for any client that discards rows).
A server keeps every MASKS frame within the peer's ``max_frame`` even
when all its lanes are full: it refuses an OPEN_BEAM whose full-row
frame would not fit (``FRAME_TOO_LARGE``), and a FORK past
``MAX_BEAM_WIDTH`` or past that size (``BAD_TOKEN``).

Connections are multiplexed: ``flow_id`` is a connection-scoped u32
chosen by the client; ``CONNECTION_FLOW`` (``0xFFFFFFFF``) in an ERROR
frame addresses the connection itself rather than one flow.

The handshake is one HELLO each way. The client speaks first and
announces its protocol version and the largest frame *it* will accept;
the server answers with its own, and each side must keep every frame
it sends within the other's advertised limit. A version mismatch is
answered with ``ERROR(VERSION_MISMATCH)`` and a close. Behind the
fixed fields come two comma-separated UTF-8 lists: the registry refs
the endpoint serves and — after a newline, from a cluster proxy only,
new in version 4 — its *ring*, the ``host:port`` of its healthy
members, where clients open scan flows themselves (the proxy answers a
scan OPEN_FLOW with ``ERROR(REDIRECT)``). A proxy re-sends its HELLO
whenever the ring changes: the last one read is the ring.

RESULT record blocks
--------------------
A RESULT carries its results as raw fixed-width records, like MASKS —
nothing on this wire is pickled, in either direction. After
``flow_id, final`` comes one self-contained *block*::

    !BII   kind, n_names, n_records
    n_names   x (!I length + UTF-8 bytes)     the block's name table
    n_records x one fixed-width record of the block's kind

    kind 0  routed   !QQiI  start, end, port, service id
    kind 1  event    !IIQI  production, position, end, terminal id

Ids index the block's own name table (``0xFFFFFFFF``: no service was
named). A routed record is a routing decision *by span*: the message's
bytes are ``[start, end)`` of what the client sent on the flow, which
the client still holds — the payload is never sent back
(:func:`decode_result` slices it out of ``data`` when given the flow's
bytes, and yields spans otherwise). An event record rebuilds
``DetectEvent(Occurrence(production, position, Terminal(name)), end)``
without the grammar. :func:`encode_result_frames` splits a result list
into as many frames as the receiver's ``max_frame`` asks for; only the
last carries ``final``. Version 2 is the first with record blocks
(version 1 pickled the result list and echoed each payload); version
3 retired the single-lane mask frame types 0x08-0x0A.

Flush rule: a flow's bytes are the concatenation of its DATA bodies
however they are cut, so a server scans the DATA of a flow in one read
as one chunk and answers with one RESULT, and a client sends the
chunks of one loop turn as one DATA frame. Every framed connection is
one :class:`FramedProtocol`: frames are handled inside its read
callback as zero-copy :class:`FrameDecoder` views of the read, it
holds one flow's items in one slot, and it writes once per loop turn.
"""

from __future__ import annotations

import asyncio
import collections
import functools
import struct
import sys
from typing import Any, NamedTuple

from repro.errors import ReproError

__all__ = [
    "BeamOp",
    "CONNECTION_FLOW",
    "DEFAULT_MAX_FRAME",
    "ErrorCode",
    "MAX_BEAM_WIDTH",
    "MAX_MASKS_ROW_BYTES",
    "Frame",
    "FrameDecoder",
    "FrameType",
    "FramedProtocol",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServerFault",
    "apply_masks",
    "decode_batch_advance",
    "decode_data",
    "decode_error",
    "decode_finish_flow",
    "decode_hello",
    "decode_hello_lists",
    "decode_masks",
    "decode_open_beam",
    "decode_open_flow",
    "decode_result",
    "decode_result_block",
    "encode_batch_advance",
    "encode_data",
    "encode_error",
    "encode_finish_flow",
    "encode_frame",
    "encode_goodbye",
    "encode_hello",
    "encode_masks",
    "encode_masks_records",
    "encode_open_beam",
    "encode_open_flow",
    "encode_result",
    "encode_result_frames",
    "masks_frame_size",
    "result_kernel",
    "split_result",
]

#: Protocol version spoken by this build (bumped on incompatible change).
PROTOCOL_VERSION = 4

#: Default largest accepted frame (type byte + payload), 1 MiB.
DEFAULT_MAX_FRAME = 1 << 20

#: ``flow_id`` addressing the connection itself in ERROR frames.
CONNECTION_FLOW = 0xFFFFFFFF

_HEADER = struct.Struct("!I")
#: A frame's length and type, and those followed by a flow id.
_FRAME_HEAD = struct.Struct("!IB")
_FLOW_HEAD = struct.Struct("!IBI")
_HELLO = struct.Struct("!HI")
_FLOW = struct.Struct("!I")
_RESULT_HEAD = struct.Struct("!IB")
_BLOCK_HEAD = struct.Struct("!BII")
#: RESULT block kinds and their record layouts.
_ROUTED, _EVENT = 0, 1
_RECORD = {
    _ROUTED: struct.Struct("!QQiI"),
    _EVENT: struct.Struct("!IIQI"),
}
#: Service id of a routed record whose message named no service.
_NO_NAME = 0xFFFFFFFF
_ERROR_HEAD = struct.Struct("!IH")
_BEAM_OPEN_HEAD = struct.Struct("!IH")
_BATCH_HEAD = struct.Struct("!IB")
_MASKS_HEAD = struct.Struct("!IHH")
#: Widest mask row a MASKS frame can carry: ``row_bytes`` and the
#: delta entries' byte offsets are u16.
MAX_MASKS_ROW_BYTES = 0xFFFF
_LANE_HEAD = struct.Struct("!IB")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")

#: Raw sha256 digest length carried by OPEN_BEAM.
_VOCAB_HASH_LEN = 32

#: Largest beam width OPEN_BEAM accepts and FORK grows to (the field
#: is u16; the cap keeps a hostile flow from allocating thousands of
#: lanes).
MAX_BEAM_WIDTH = 1024


def masks_frame_size(width: int, row_bytes: int) -> int:
    """The size (type byte + payload) of a MASKS frame whose ``width``
    lanes are all full rows — the largest one such a beam is sent."""
    return 1 + _MASKS_HEAD.size + width * (_LANE_HEAD.size + row_bytes)


class FrameType:
    """Wire frame type codes (u8)."""

    HELLO = 0x01
    OPEN_FLOW = 0x02
    DATA = 0x03
    FINISH_FLOW = 0x04
    RESULT = 0x05
    ERROR = 0x06
    GOODBYE = 0x07
    OPEN_BEAM = 0x0B
    BATCH_ADVANCE = 0x0C
    MASKS = 0x0D

    NAMES = {
        HELLO: "HELLO",
        OPEN_FLOW: "OPEN_FLOW",
        DATA: "DATA",
        FINISH_FLOW: "FINISH_FLOW",
        RESULT: "RESULT",
        ERROR: "ERROR",
        GOODBYE: "GOODBYE",
        OPEN_BEAM: "OPEN_BEAM",
        BATCH_ADVANCE: "BATCH_ADVANCE",
        MASKS: "MASKS",
    }


class BeamOp:
    """Op codes carried by BATCH_ADVANCE frames."""

    ADVANCE = 0
    FORK = 1
    ROLLBACK = 2

    NAMES = {ADVANCE: "ADVANCE", FORK: "FORK", ROLLBACK: "ROLLBACK"}


class ErrorCode:
    """Codes carried by ERROR frames."""

    BAD_FRAME = 1
    VERSION_MISMATCH = 2
    FRAME_TOO_LARGE = 3
    UNKNOWN_FLOW = 4
    DUPLICATE_FLOW = 5
    IDLE_TIMEOUT = 6
    DRAINING = 7
    OVERLOADED = 8
    INTERNAL = 9
    UNKNOWN_VOCAB = 10
    BAD_TOKEN = 11
    #: A routing tier lost the flow's backend and could not replay it
    #: onto another: no healthy backend was left, the replay hit an
    #: ERROR, or its replies differed from those already forwarded.
    #: The flow is dead; reopen to continue.
    FAILOVER = 12
    #: A routing tier does not carry this flow kind: open it on a
    #: member of the ring its HELLO lists (the message names them).
    REDIRECT = 13

    NAMES = {
        BAD_FRAME: "BAD_FRAME",
        VERSION_MISMATCH: "VERSION_MISMATCH",
        FRAME_TOO_LARGE: "FRAME_TOO_LARGE",
        UNKNOWN_FLOW: "UNKNOWN_FLOW",
        DUPLICATE_FLOW: "DUPLICATE_FLOW",
        IDLE_TIMEOUT: "IDLE_TIMEOUT",
        DRAINING: "DRAINING",
        OVERLOADED: "OVERLOADED",
        INTERNAL: "INTERNAL",
        UNKNOWN_VOCAB: "UNKNOWN_VOCAB",
        BAD_TOKEN: "BAD_TOKEN",
        FAILOVER: "FAILOVER",
        REDIRECT: "REDIRECT",
    }


class ProtocolError(ReproError):
    """A malformed, oversized, or out-of-contract frame."""

    def __init__(self, message: str, code: int = ErrorCode.BAD_FRAME) -> None:
        super().__init__(message)
        self.code = code


class ServerFault(ReproError):
    """The peer reported an ERROR frame."""

    def __init__(self, flow: int, code: int, message: str) -> None:
        name = ErrorCode.NAMES.get(code, str(code))
        super().__init__(f"server error [{name}] on flow {flow}: {message}")
        self.flow = flow
        self.code = code
        self.detail = message


class Frame(NamedTuple):
    """One decoded wire frame: type code plus raw payload — a read-only
    ``memoryview`` into the read it arrived in, which it keeps alive
    (``bytes(frame.payload)`` before concatenating it)."""

    type: int
    payload: bytes | memoryview

    @property
    def name(self) -> str:
        return FrameType.NAMES.get(self.type, f"0x{self.type:02x}")


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def encode_frame(ftype: int, payload: bytes = b"") -> bytes:
    """``length | type | payload`` — the one frame shape on the wire."""
    return _FRAME_HEAD.pack(1 + len(payload), ftype) + payload


def encode_hello(
    version: int = PROTOCOL_VERSION,
    max_frame: int = DEFAULT_MAX_FRAME,
    grammars: tuple[str, ...] | list[str] = (),
    ring: tuple[str, ...] | list[str] | None = None,
) -> bytes:
    """``grammars``: the registry refs the endpoint serves; ``ring``: a
    proxy's healthy members' data addresses (None: the peer is no proxy)."""
    payload = _HELLO.pack(version, max_frame) + ",".join(grammars).encode()
    if ring is not None:
        payload += b"\n" + ",".join(ring).encode()
    return encode_frame(FrameType.HELLO, payload)


def encode_open_flow(flow_id: int) -> bytes:
    return _FLOW_HEAD.pack(5, FrameType.OPEN_FLOW, flow_id)


def encode_data(flow_id: int, chunk: bytes) -> bytes:
    return _FLOW_HEAD.pack(5 + len(chunk), FrameType.DATA, flow_id) + chunk


def encode_finish_flow(flow_id: int) -> bytes:
    return _FLOW_HEAD.pack(5, FrameType.FINISH_FLOW, flow_id)


def result_kernel():
    """The native kernel when this process already loaded it and
    ``REPRO_DISABLE_NATIVE`` is unset, else None: looked up, never
    imported (the proxy and a client stay kernel-free)."""
    build = sys.modules.get("repro.core._native_build")
    return build.loaded_kernel() if build is not None else None


def encode_result_frames(
    flow_id: int,
    final: bool,
    items: list,
    max_frame: int = DEFAULT_MAX_FRAME,
    kernel: Any = ...,
) -> list[bytes]:
    """The RESULT frames carrying ``items``, each within the
    receiver's ``max_frame``; only the last one is ``final``.

    ``items`` are routing decisions (anything with ``start``, ``end``,
    ``port`` and ``service``: ``RouteRecord``, ``RoutedMessage`` — whose
    payload stays behind) or ``DetectEvent`` s, all of one kind. The
    one RESULT encoder: the server splits here.  Routed tuples are
    encoded by ``kernel`` — by default the native module
    :func:`result_kernel` finds; a server passes the one it resolved
    for the generation, None for the twin alone. :func:`_split` is its
    twin and decides everything the kernel leaves to it.
    """
    if items and hasattr(items[0], "occurrence"):
        rows = [
            (
                event.occurrence.production,
                event.occurrence.position,
                event.end,
                event.occurrence.terminal.name,
            )
            for event in items
        ]
        return _split(flow_id, final, _EVENT, rows, max_frame)
    if kernel is ...:
        kernel = result_kernel()
    if kernel is not None:
        frames = _routed_frames(kernel, flow_id, final, items, max_frame)
        if frames is not None:
            return frames
    rows = [(m.start, m.end, m.port, m.service) for m in items]
    return _split(flow_id, final, _ROUTED, rows, max_frame)


def _budget(max_frame: int) -> int:
    """Bytes a RESULT frame may spend on names and records."""
    return max_frame - 1 - _RESULT_HEAD.size - _BLOCK_HEAD.size


def _routed_frames(ext, flow_id, final, items, max_frame):
    """The kernel's frames for routed ``items``, one ``encode_routed``
    call each, or None: for an item it does not take (not a tuple, a
    value out of its field's range) or one no frame can hold, the twin
    runs instead and raises its own error."""
    budget = _budget(max_frame)
    frames: list[bytes] = []
    first = 0
    try:
        while True:
            block, stop = ext.encode_routed(items, first, budget)
            last = stop == len(items)
            if stop == first and not last:
                return None
            frames.append(
                encode_frame(
                    FrameType.RESULT,
                    _RESULT_HEAD.pack(flow_id, 1 if last and final else 0)
                    + block,
                )
            )
            if last:
                return frames
            first = stop
    except (TypeError, OverflowError, UnicodeEncodeError):
        return None


def _split(flow_id, final, kind, rows, max_frame) -> list[bytes]:
    """RESULT frames for ``rows`` (``a, b, c, name`` per record of
    ``kind``), each the longest run that fits with its own name
    table."""
    spec = _RECORD[kind]
    budget = _budget(max_frame)
    frames: list[bytes] = []
    ids: dict[str, int] = {}
    names: list[bytes] = []
    records: list[bytes] = []
    used = 0

    def close(last: bool) -> None:
        frames.append(
            encode_frame(
                FrameType.RESULT,
                _RESULT_HEAD.pack(flow_id, 1 if last and final else 0)
                + _BLOCK_HEAD.pack(kind, len(names), len(records))
                + b"".join(names)
                + b"".join(records),
            )
        )

    try:
        for a, b, c, name in rows:
            while True:
                ident = _NO_NAME if name is None else ids.get(name)
                entry = b""
                if ident is None:
                    raw = name.encode("utf-8")
                    entry = _U32.pack(len(raw)) + raw
                    ident = len(names)
                if used + len(entry) + spec.size <= budget:
                    break
                if not records:
                    raise ProtocolError(
                        f"one result record takes {len(entry) + spec.size} "
                        f"bytes; the peer's frame limit {max_frame} leaves "
                        f"{budget}",
                        code=ErrorCode.FRAME_TOO_LARGE,
                    )
                # Full: the next frame starts its own name table.
                close(False)
                ids.clear()
                names.clear()
                records.clear()
                used = 0
            if entry:
                ids[name] = ident
                names.append(entry)
            records.append(spec.pack(a, b, c, ident))
            used += len(entry) + spec.size
    except (struct.error, UnicodeEncodeError) as exc:
        raise ProtocolError(f"unencodable result record: {exc}") from exc
    close(True)
    return frames


def encode_result(flow_id: int, final: bool, items: list) -> bytes:
    """:func:`encode_result_frames` at the default frame limit, as one
    byte string (one frame unless the results outgrow 1 MiB)."""
    return b"".join(encode_result_frames(flow_id, final, items))


def encode_error(flow_id: int, code: int, message: str) -> bytes:
    return encode_frame(
        FrameType.ERROR,
        _ERROR_HEAD.pack(flow_id, code) + message.encode("utf-8"),
    )


def encode_goodbye() -> bytes:
    return encode_frame(FrameType.GOODBYE)


def encode_open_beam(
    flow_id: int, width: int, vocab_hash: str | bytes
) -> bytes:
    """Open a beam flow of ``width`` lanes against a vocabulary,
    identified by its sha256 (hex string or 32 raw bytes)."""
    if not 1 <= width <= MAX_BEAM_WIDTH:
        raise ProtocolError(
            f"beam width {width} outside [1, {MAX_BEAM_WIDTH}]"
        )
    digest = (
        bytes.fromhex(vocab_hash)
        if isinstance(vocab_hash, str)
        else bytes(vocab_hash)
    )
    if len(digest) != _VOCAB_HASH_LEN:
        raise ProtocolError(
            f"vocab hash must be {_VOCAB_HASH_LEN} bytes, "
            f"got {len(digest)}"
        )
    return encode_frame(
        FrameType.OPEN_BEAM,
        _BEAM_OPEN_HEAD.pack(flow_id, width) + digest,
    )


def encode_batch_advance(flow_id: int, op: int, arg) -> bytes:
    """One beam mutation: op ``BeamOp.ADVANCE`` takes the per-lane
    token id list, ``FORK`` the lane index, ``ROLLBACK`` the step
    count — each a u32 on the wire, so anything else (negative, too
    large, not an int) is a ProtocolError."""
    try:
        head = _BATCH_HEAD.pack(flow_id, op)
        if op == BeamOp.ADVANCE:
            if not arg:
                raise ProtocolError("ADVANCE carries no token ids")
            body = struct.pack(f"!{len(arg)}I", *arg)
        elif op in (BeamOp.FORK, BeamOp.ROLLBACK):
            body = _U32.pack(arg)
        else:
            raise ProtocolError(f"unknown beam op {op}")
    except struct.error as exc:
        raise ProtocolError(f"unencodable BATCH_ADVANCE: {exc}") from None
    return encode_frame(FrameType.BATCH_ADVANCE, head + body)


def encode_masks(flow_id: int, row_bytes: int, lanes: list) -> bytes:
    """The whole beam's masks in one frame. ``lanes`` is a list of
    ``(state, kind, body)``: kind 0 bodies are full ``row_bytes``
    rows, kind 1 bodies are raw XOR patch entries (length a multiple
    of 3) against the lane's previously sent row."""
    parts = [_MASKS_HEAD.pack(flow_id, len(lanes), row_bytes)]
    for state, kind, body in lanes:
        parts.append(_LANE_HEAD.pack(state, kind))
        if kind == 0:
            if len(body) != row_bytes:
                raise ProtocolError(
                    f"full lane body of {len(body)} bytes, "
                    f"row_bytes {row_bytes}"
                )
            parts.append(body)
        elif kind == 1:
            if len(body) % 3:
                raise ProtocolError(
                    f"delta lane body of {len(body)} bytes is not a "
                    "whole number of 3-byte entries"
                )
            parts.append(_U16.pack(len(body) // 3))
            parts.append(body)
        else:
            raise ProtocolError(f"unknown MASKS lane kind {kind}")
    return encode_frame(FrameType.MASKS, b"".join(parts))


def encode_masks_records(
    flow_id: int, n_lanes: int, row_bytes: int, records: bytes
) -> bytes:
    """:func:`encode_masks` for lane records already laid out in wire
    order (``structgen.beam.encode_lane_records``)."""
    return encode_frame(
        FrameType.MASKS,
        _MASKS_HEAD.pack(flow_id, n_lanes, row_bytes) + records,
    )


# ----------------------------------------------------------------------
# payload decoding (each raises ProtocolError on a short/garbled body)
# ----------------------------------------------------------------------
def _unpack(spec: struct.Struct, frame: Frame) -> tuple:
    if len(frame.payload) < spec.size:
        raise ProtocolError(
            f"{frame.name} frame payload too short "
            f"({len(frame.payload)} < {spec.size} bytes)"
        )
    return spec.unpack_from(frame.payload)


def decode_hello(frame: Frame) -> tuple[int, int]:
    """-> (version, max_frame)."""
    return _unpack(_HELLO, frame)  # type: ignore[return-value]


def decode_hello_lists(frame: Frame) -> tuple[tuple, tuple | None]:
    """-> (grammar refs, ring): the lists behind the fixed HELLO
    fields; the ring is None when the peer is no proxy."""
    text = str(frame.payload[_HELLO.size :], "utf-8", "replace")
    grammars, newline, ring = text.partition("\n")
    return (
        tuple(filter(None, grammars.split(","))),
        tuple(filter(None, ring.split(","))) if newline else None,
    )


def decode_open_flow(frame: Frame) -> int:
    return _unpack(_FLOW, frame)[0]


def decode_data(frame: Frame) -> tuple[int, bytes]:
    (flow_id,) = _unpack(_FLOW, frame)
    return flow_id, frame.payload[_FLOW.size :]


def decode_finish_flow(frame: Frame) -> int:
    return _unpack(_FLOW, frame)[0]


def split_result(frame: Frame) -> tuple[int, bool, bytes]:
    """-> (flow_id, final, record block): a RESULT taken apart without
    reading its records — all a client that decodes at ``finish()``
    needs per frame."""
    flow_id, final = _unpack(_RESULT_HEAD, frame)
    if final > 1:
        raise ProtocolError(f"RESULT final flag is {final}, not 0 or 1")
    return flow_id, bool(final), frame.payload[_RESULT_HEAD.size :]


def decode_result(
    frame: Frame, data: bytes | None = None
) -> tuple[int, bool, list]:
    """-> (flow_id, final, items); :func:`decode_result_block` has
    what ``items`` are and what ``data`` does."""
    flow_id, final, block = split_result(frame)
    return flow_id, final, decode_result_block(block, data)


def decode_result_block(block: bytes, data: bytes | None = None) -> list:
    """The results in one RESULT record block (a RESULT payload behind
    ``flow_id, final``).

    Event records come back as ``DetectEvent`` s. Routed records come
    back as ``RouteRecord`` spans, or — given ``data``, the bytes the
    flow was sent — as ``RoutedMessage`` s whose payload is
    ``data[start:end]``. Every length, count and id is checked; a block
    that fails raises :class:`ProtocolError` and nothing else.
    """
    kind, names, body = _block_parts(block)
    if kind == _EVENT:
        from repro.core.scanplan import DetectEvent
        from repro.grammar.analysis import Occurrence
        from repro.grammar.symbols import Terminal

        rows = list(_RECORD[_EVENT].iter_unpack(body))
        for *_, ident in rows:
            if ident >= len(names):
                raise ProtocolError(
                    f"RESULT terminal id {ident} outside a table of "
                    f"{len(names)}"
                )
        terminals = [Terminal(name) for name in names]
        return [
            DetectEvent(Occurrence(production, position, terminals[ident]), end)
            for production, position, end, ident in rows
        ]
    return _routed_rows(body, names, data, *_routed_types())


@functools.cache
def _routed_types() -> tuple:
    """Imported on first use, not at the top: a client reading routed
    results loads the message model only, never the scan engine."""
    from repro.apps.xmlrpc.messages import RoutedMessage, RouteRecord

    return RouteRecord, RoutedMessage


def _block_parts(block) -> tuple[int, list[str], memoryview]:
    """-> (kind, name table, record bytes) of a RESULT block whose head,
    names and length are checked."""
    if len(block) < _BLOCK_HEAD.size:
        raise ProtocolError(
            f"RESULT block too short ({len(block)} < {_BLOCK_HEAD.size} "
            "bytes)"
        )
    kind, n_names, n_records = _BLOCK_HEAD.unpack_from(block)
    spec = _RECORD.get(kind)
    if spec is None:
        raise ProtocolError(f"unknown RESULT block kind {kind}")
    pos = _BLOCK_HEAD.size
    names: list[str] = []
    for _ in range(n_names):
        if len(block) < pos + _U32.size:
            raise ProtocolError("RESULT block truncated in its name table")
        (length,) = _U32.unpack_from(block, pos)
        pos += _U32.size
        raw = block[pos : pos + length]
        if len(raw) != length:
            raise ProtocolError("RESULT block truncated in a name")
        try:
            names.append(str(raw, "utf-8"))
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"RESULT name is not UTF-8: {exc}") from exc
        pos += length
    if len(block) - pos != n_records * spec.size:
        raise ProtocolError(
            f"RESULT block declares {n_records} records of {spec.size} "
            f"bytes, carries {len(block) - pos} bytes"
        )
    return kind, names, memoryview(block)[pos:]


def _routed_rows(body, names, data, span, message) -> list:
    """Routed records as ``span`` tuples ``(start, end, port,
    service)``, or given ``data`` as ``message`` tuples with the payload
    ``data[start:end]`` behind: one pass over the records, through a
    table that maps every valid service id (and only those)."""
    table: dict[int, str | None] = dict(enumerate(names))
    table[_NO_NAME] = None
    new = tuple.__new__
    rows = _RECORD[_ROUTED].iter_unpack(body)
    try:
        if data is None:
            return [
                new(span, (start, end, port, table[ident]))
                for start, end, port, ident in rows
                if start <= end or _routed_error(body, names, data)
            ]
        size = len(data)
        return [
            new(message, (start, end, port, table[ident], data[start:end]))
            for start, end, port, ident in rows
            if start <= end <= size or _routed_error(body, names, data)
        ]
    except KeyError:
        _routed_error(body, names, data)


def _routed_error(body, names, data) -> None:
    """Raise the first record's error, in the order the checks apply."""
    for start, end, _port, ident in _RECORD[_ROUTED].iter_unpack(body):
        if start > end:
            raise ProtocolError(f"RESULT span [{start}:{end}] is reversed")
        if ident != _NO_NAME and ident >= len(names):
            raise ProtocolError(
                f"RESULT service id {ident} outside a table of {len(names)}"
            )
        if data is not None and end > len(data):
            raise ProtocolError(
                f"RESULT span [{start}:{end}] outside the flow's "
                f"{len(data)} bytes"
            )


def decode_open_beam(frame: Frame) -> tuple[int, int, str]:
    """-> (flow_id, width, vocab_hash hex)."""
    flow_id, width = _unpack(_BEAM_OPEN_HEAD, frame)
    if not 1 <= width <= MAX_BEAM_WIDTH:
        raise ProtocolError(
            f"OPEN_BEAM width {width} outside [1, {MAX_BEAM_WIDTH}]"
        )
    digest = frame.payload[_BEAM_OPEN_HEAD.size :]
    if len(digest) != _VOCAB_HASH_LEN:
        raise ProtocolError(
            f"OPEN_BEAM carries {len(digest)} hash bytes, "
            f"expected {_VOCAB_HASH_LEN}"
        )
    return flow_id, width, digest.hex()


def decode_batch_advance(frame: Frame) -> tuple[int, int, Any]:
    """-> (flow_id, op, arg): the token id tuple for ADVANCE, the
    lane index for FORK, the step count for ROLLBACK."""
    flow_id, op = _unpack(_BATCH_HEAD, frame)
    body = frame.payload[_BATCH_HEAD.size :]
    if op == BeamOp.ADVANCE:
        if len(body) % 4 or not body:
            raise ProtocolError(
                f"BATCH_ADVANCE op ADVANCE body of {len(body)} bytes "
                "is not a non-empty multiple of 4"
            )
        return flow_id, op, struct.unpack(f"!{len(body) // 4}I", body)
    if op in (BeamOp.FORK, BeamOp.ROLLBACK):
        if len(body) != _U32.size:
            raise ProtocolError(
                f"BATCH_ADVANCE op {BeamOp.NAMES[op]} body of "
                f"{len(body)} bytes, expected {_U32.size}"
            )
        return flow_id, op, _U32.unpack(body)[0]
    raise ProtocolError(f"unknown BATCH_ADVANCE op {op}")


def decode_masks(frame: Frame) -> tuple[int, int, list]:
    """-> (flow_id, row_bytes, [(state, kind, body), ...])."""
    flow_id, n_lanes, row_bytes = _unpack(_MASKS_HEAD, frame)
    payload = frame.payload
    pos = _MASKS_HEAD.size
    lanes = []
    for _ in range(n_lanes):
        if len(payload) < pos + _LANE_HEAD.size:
            raise ProtocolError("MASKS frame truncated in lane header")
        state, kind = _LANE_HEAD.unpack_from(payload, pos)
        pos += _LANE_HEAD.size
        if kind == 0:
            body = payload[pos : pos + row_bytes]
            if len(body) != row_bytes:
                raise ProtocolError("MASKS frame truncated in full row")
            pos += row_bytes
        elif kind == 1:
            if len(payload) < pos + _U16.size:
                raise ProtocolError(
                    "MASKS frame truncated in delta count"
                )
            (count,) = _U16.unpack_from(payload, pos)
            pos += _U16.size
            body = payload[pos : pos + 3 * count]
            if len(body) != 3 * count:
                raise ProtocolError("MASKS frame truncated in delta")
            pos += 3 * count
        else:
            raise ProtocolError(f"unknown MASKS lane kind {kind}")
        lanes.append((state, kind, body))
    if pos != len(payload):
        raise ProtocolError(
            f"MASKS frame has {len(payload) - pos} trailing bytes"
        )
    return flow_id, row_bytes, lanes


def apply_masks(frame: Frame, prev_rows: list) -> tuple:
    """Every lane's row from a MASKS frame, deltas patched onto
    ``prev_rows`` -> ``(states, rows, n_full, n_delta, body_bytes)``;
    ProtocolError for what :func:`decode_masks` refuses, a delta lane
    without a previous row of the frame's width, an entry past it."""
    from repro.core import _native_build  # not for a scan-only client

    ext = _native_build.load_kernel()
    if ext is None:
        return _apply_masks_portable(frame, prev_rows)
    _flow_id, n_lanes, row_bytes = _unpack(_MASKS_HEAD, frame)
    try:
        return ext.apply_masks(
            frame.payload, _MASKS_HEAD.size, n_lanes, row_bytes, prev_rows
        )
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


def _apply_masks_portable(frame: Frame, prev_rows: list) -> tuple:
    from repro.apps.structgen.beam import apply_xor_patch

    _flow_id, row_bytes, lanes = decode_masks(frame)
    rows = []
    n_delta = 0
    for lane, (_state, kind, body) in enumerate(lanes):
        if kind:
            try:
                body = apply_xor_patch(prev_rows[lane], body)
            except IndexError:  # no previous row, or an entry past its end
                body = None
            if body is None or len(body) != row_bytes:
                raise ProtocolError(
                    f"MASKS delta lane {lane} does not patch onto a "
                    f"previous {row_bytes}-byte row"
                )
            n_delta += 1
        rows.append(bytes(body))
    return (
        tuple(lane[0] for lane in lanes),
        rows,
        len(lanes) - n_delta,
        n_delta,
        sum(len(lane[2]) for lane in lanes),
    )


def decode_error(frame: Frame) -> tuple[int, int, str]:
    """-> (flow_id, code, message)."""
    flow_id, code = _unpack(_ERROR_HEAD, frame)
    message = str(frame.payload[_ERROR_HEAD.size :], "utf-8", "replace")
    return flow_id, code, message


# ----------------------------------------------------------------------
class FrameDecoder:
    """Incremental sans-IO frame parser with a hard size limit.

    Feed reads (immutable ``bytes``); complete frames come back in order,
    each payload a ``memoryview`` slice of its read (no copy; valid as
    long as it is kept). A frame straddling reads is joined once, when
    whole. A declared length above ``max_frame`` raises
    :class:`ProtocolError` before its body arrives; frames ahead of it
    in the same read are still returned, the error kept in :attr:`error`
    for the receiver to raise once it handled them."""

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self.max_frame = max_frame
        #: Bytes of the complete frames handed out so far, heads
        #: included (what a receiver counts as frame bytes received).
        self.taken = 0
        self.error: ProtocolError | None = None
        #: The pieces of a straddling frame, their size, and the size
        #: that completes what they begin (its head while that is
        #: incomplete; 0: no frame straddles).
        self._parts: list = []
        self._held = 0
        self._need = 0

    def _check(self, length: int) -> int:
        if not 1 <= length <= self.max_frame:
            self.error = ProtocolError(
                f"frame of {length} bytes exceeds limit {self.max_frame}",
                code=ErrorCode.FRAME_TOO_LARGE,
            ) if length else ProtocolError("frame with empty body")
            raise self.error
        return length

    def feed(self, data: bytes) -> list[Frame]:
        if self.error is not None:
            raise self.error
        view = memoryview(data)
        frames: list[Frame] = []
        while self._need:  # complete the straddling frame first
            piece = view[: self._need - self._held]
            view = view[len(piece) :]
            self._parts.append(piece)
            self._held += len(piece)
            if self._held < self._need:
                return frames
            block = b"".join(self._parts)
            self._parts = [block]
            if self._need == _HEADER.size:  # now its size is known
                self._need += self._check(_HEADER.unpack(block)[0])
                continue
            self._parts, self._held, self._need = [], 0, 0
            self.taken += len(block)
            frames.append(Frame(block[4], memoryview(block)[5:]))
        size, pos, limit = len(view), 0, self.max_frame
        unpack, new = _HEADER.unpack_from, tuple.__new__
        while size - pos >= 4:
            (length,) = unpack(view, pos)
            if not 1 <= length <= limit:
                try:
                    self._check(length)
                except ProtocolError:
                    if frames:
                        return frames
                    raise
            end = pos + 4 + length
            if end > size:
                break
            frames.append(new(Frame, (view[pos + 4], view[pos + 5 : end])))
            self.taken += end - pos
            pos = end
        if pos < size:
            self._parts.append(view[pos:])
            self._held = size - pos
            self._need = end - pos if self._held >= 4 else _HEADER.size
        return frames

    def pending(self) -> int:
        """Bytes held awaiting the rest of a frame."""
        return self._held


class _Resume:
    """The rest of a coroutine that suspended on ``first`` in its first
    step, for a task to run: every later step is the coroutine's own."""

    def __init__(self, coro, first) -> None:
        self.coro, self.first = coro, first

    def __await__(self):
        pending = self.first
        while True:
            try:
                sent = yield pending
            except BaseException as exc:  # thrown in by the task
                step, arg = self.coro.throw, exc
            else:
                step, arg = self.coro.send, sent
            try:
                pending = step(arg)
            except StopIteration as stop:
                return stop.value


def start_eagerly(coro) -> asyncio.Task | None:
    """Run ``coro`` now, to its first suspension: None if it finished
    (raising what it raised), else the task running the rest — Python
    3.12's eager task start, for every version the package supports.
    From 3.12 on that step runs inside its task (``wait_for`` needs
    one there); before, outside any task, where nothing needs one."""
    if sys.version_info >= (3, 12):
        task = asyncio.Task(
            coro, loop=asyncio.get_running_loop(), eager_start=True
        )
        if not task.done():
            return task
        task.result()
        return None
    try:
        first = coro.send(None)
    except StopIteration:
        return None
    return asyncio.ensure_future(_Resume(coro, first))


class FramedProtocol(asyncio.Protocol):
    """One framed connection — server, proxy front, client, the proxy's
    backend pool. ``data_received`` hands the read's frames one by one
    to :meth:`frame_received`; a handler that must wait starts a
    coroutine through :meth:`run`, and only if that suspends does the
    connection stop reading, the frames behind it waiting in order.
    Frames queued by :meth:`queue` leave in one ``transport.write`` per
    loop turn (at once through :meth:`push`); :attr:`paused` while the
    transport holds ``high_water`` unsent bytes, and :meth:`pace` then
    waits until it drained. One flow's consecutive items (a client's
    DATA chunks, a server's scan results) wait in one held slot
    (:meth:`hold_for`) and leave merged, as the frames
    :meth:`_encode_held` makes of them, once anything else is queued or
    the turn's write happens."""

    def __init__(
        self, max_frame: int = DEFAULT_MAX_FRAME, high_water: int = 1 << 16
    ) -> None:
        self.decoder = FrameDecoder(max_frame)
        self.transport: asyncio.Transport | None = None
        #: The largest frame the peer said it accepts (its HELLO).
        self.peer_max_frame = DEFAULT_MAX_FRAME
        self.high_water = high_water
        #: Nothing more can be written (what is queued is dropped), and
        #: the write failure behind it, for senders that raise.
        self.closed = False
        self.error: Exception | None = None
        self.paused = False
        #: Encoded frames awaiting the next :meth:`push`, their size,
        #: whether a push is due by the turn's end, and its handle.
        self._out: list[bytes] = []
        self._queued = 0
        self._corked = False
        self._turn_end: asyncio.Handle | None = None
        #: The held slot: a flow id and the items held for it.
        self._held_flow: int | None = None
        self._held: list = []
        #: Resolved when writing resumes / the connection is gone.
        self._resumed: asyncio.Future | None = None
        self._lost: asyncio.Future | None = None
        #: Reasons reading is paused.
        self._holds = 0
        #: The tasks of coroutines :meth:`run` started that are still
        #: running, and the frames waiting behind them (None: none is).
        self.running: set[asyncio.Task] = set()
        self._backlog: collections.deque | None = None

    # -- writing ---------------------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        # Under glibc's 128 KiB mmap threshold, a read's buffer comes off
        # the heap: asyncio's 256 KiB one is a fresh mmap per read.
        transport.max_size = 64 * 1024
        transport.set_write_buffer_limits(high=self.high_water)
        self._lost = asyncio.get_running_loop().create_future()

    def connection_lost(self, exc) -> None:
        self.closed = True
        self.resume_writing()  # nothing will drain: wake the writers
        self._lost.set_result(None)

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        if self._resumed is not None:
            self._resumed.set_result(None)
            self._resumed = None

    async def writable(self) -> None:
        """Return once the transport takes writes (at once unless
        :attr:`paused`)."""
        if self.paused and not self.closed:
            if self._resumed is None:
                self._resumed = asyncio.get_running_loop().create_future()
            await asyncio.shield(self._resumed)

    def hold_for(self, flow_id: int, items: list, nbytes: int = 0) -> None:
        """Hold ``items`` for ``flow_id`` behind what the slot already
        holds for it (what it holds for another flow is queued first);
        ``nbytes`` count toward the ``high_water`` mark."""
        if self._held_flow != flow_id:
            self._settle()
            self._held_flow = flow_id
        self._held += items
        self._queued += nbytes
        self._cork()

    def take_held(self, flow_id: int) -> list:
        """Empty the slot of what it holds for ``flow_id``, to go out in
        a frame of the caller's."""
        if self._held_flow != flow_id:
            return []
        held, self._held, self._held_flow = self._held, [], None
        return held

    def _settle(self) -> None:
        """What the slot holds leaves now: called before anything else
        is queued and before a write."""
        if self._held:
            held, self._held = self._held, []
            self._out += self._encode_held(self._held_flow, held)

    def _encode_held(self, flow_id: int, items: list) -> list[bytes]:
        """The frames carrying the items held for ``flow_id``."""
        raise NotImplementedError

    def _wrote(self, frames: int, nbytes: int) -> None:
        """Metrics hook: one write of ``frames`` frames, ``nbytes``."""

    def queue(self, *frames: bytes) -> None:
        """Queue encoded frames for the turn's write (the wire keeps
        the order the frames were queued in)."""
        self._settle()
        self._out += frames
        self._queued += sum(map(len, frames))
        self._cork()

    def _cork(self) -> None:
        if not self._corked:
            self._corked = True
            self._turn_end = asyncio.get_running_loop().call_soon(self.push)

    def push(self) -> None:
        """Hand everything queued to the transport in one write (and
        call off the turn-end push)."""
        self._corked = False
        if self._turn_end is not None:
            self._turn_end.cancel()
            self._turn_end = None
        self._settle()
        if not self._out:
            return
        frames, blob = len(self._out), b"".join(self._out)
        self._out.clear()
        self._queued = 0
        if self.closed:
            return
        try:
            self.transport.write(blob)
            self._wrote(frames, len(blob))
        except (ConnectionError, RuntimeError, OSError) as exc:
            self.closed, self.error = True, exc

    @property
    def backed_up(self) -> bool:
        """``high_water`` bytes are queued or held, the transport is
        paused, or a write failed: :meth:`pace` has something to do."""
        return (self._queued >= self.high_water or self.paused
                or self.error is not None)

    async def pace(self) -> None:
        """When :attr:`backed_up`, write and wait until it drained (a
        slow reader suspends us here, never grows memory); raise what
        failed a write."""
        if self.backed_up:
            self.push()
            await self.writable()
            if self.error is not None:
                raise self.error

    def close(self) -> None:
        """Write what is queued, then close the transport (which sends
        what it holds first)."""
        self.push()
        self.closed = True
        if self.transport is not None:
            self.transport.close()

    async def wait_closed(self) -> None:
        await asyncio.shield(self._lost)

    # -- reading ---------------------------------------------------------
    def frame_received(self, frame: Frame) -> None:
        raise NotImplementedError

    def received(self, frames: int, nbytes: int) -> None:
        """A read completed ``frames`` frames of ``nbytes`` bytes."""

    def failed(self, exc: Exception) -> None:
        """A bad frame, an end of stream inside one, or a handler's
        exception: the connection is unusable."""
        self.close()

    def data_received(self, data: bytes) -> None:
        taken = self.decoder.taken
        try:
            frames = self.decoder.feed(data)
        except ProtocolError as exc:
            self.failed(exc)
            return
        if frames:
            self.received(len(frames), self.decoder.taken - taken)
            self._corked = True  # the push below is the read's one write
            if self._backlog is None:
                self._dispatch(frames)
            else:
                self._backlog.extend(frames)
        self.push()

    def eof_received(self) -> None:
        if self.decoder.pending():
            self.failed(ProtocolError("connection cut mid-frame"))

    def _dispatch(self, frames) -> None:
        for index, frame in enumerate(frames):
            if self.closed:
                return
            try:
                self.frame_received(frame)
            except Exception as exc:
                self.failed(exc)
                return
            if self.running:
                self._backlog.extend(frames[index + 1 :])
                return
        if self.decoder.error is not None and not self.closed:
            self.failed(self.decoder.error)

    def hold(self) -> None:
        self._holds += 1
        if self._holds == 1:
            self.transport.pause_reading()

    def release(self) -> None:
        self._holds -= 1
        if not self._holds and not self.closed:
            self.transport.resume_reading()

    def run(self, coro) -> asyncio.Task | None:
        """:func:`start_eagerly`, holding this connection's frames while
        the task it returns runs."""
        task = start_eagerly(coro)
        if task is not None:
            self.running.add(task)
            if self._backlog is None:
                self._backlog = collections.deque()
            self.hold()
            task.add_done_callback(self._ran)
        return task

    def _ran(self, task: asyncio.Task) -> None:
        self.running.discard(task)
        if not task.cancelled() and task.exception() is not None:
            self.failed(task.exception())
        if not self.running:
            backlog, self._backlog = self._backlog, None
            self._dispatch(list(backlog))
            self.push()
        self.release()
