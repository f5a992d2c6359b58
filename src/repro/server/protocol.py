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

    HELLO        !HI   version, max_frame     (both directions, first)
    OPEN_FLOW    !I    flow_id
    DATA         !I    flow_id + raw bytes
    FINISH_FLOW  !I    flow_id
    RESULT       !IB   flow_id, final + payload (pickled result list)
    ERROR        !IH   flow_id, code + utf-8 message
    GOODBYE      (empty)
    OPEN_MASK    !I    flow_id + 32-byte vocab sha256 (raw digest)
    ADVANCE      !II   flow_id, token_id
    MASK         !II   flow_id, state + packed validity row
    OPEN_BEAM    !IH   flow_id, width + 32-byte vocab sha256
    BATCH_ADVANCE !IB  flow_id, op + op payload (see below)
    MASKS        !IHH  flow_id, n_lanes, row_bytes + per-lane records

The mask and beam frames carry constrained-decoding flows (additive
in protocol version 1 — a server that predates them answers
``BAD_FRAME``): the client opens a mask flow against a vocabulary it
has precomputed masks for (``repro structgen precompute``), the
server replies with a MASK frame for the start state, and each
ADVANCE (one emitted token id) is answered by the MASK for the
resulting state. Mask rows are raw packed bits (token id ``i`` is bit
``i``, LSB-first per byte) — no pickle in either direction on mask
flows.

Beam flows batch a whole decode beam into one round trip per step:
OPEN_BEAM binds ``width`` lanes (all at the start state) to a mask
table and is answered by a MASKS frame; each BATCH_ADVANCE mutates
every lane at once and is answered by one MASKS frame. The op byte
selects the mutation::

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

Connections are multiplexed: ``flow_id`` is a connection-scoped u32
chosen by the client; ``CONNECTION_FLOW`` (``0xFFFFFFFF``) in an ERROR
frame addresses the connection itself rather than one flow.

The handshake is one HELLO each way. The client speaks first and
announces its protocol version and the largest frame *it* will accept;
the server answers with its own, and each side must keep every frame
it sends within the other's advertised limit. A version mismatch is
answered with ``ERROR(VERSION_MISMATCH)`` and a close.

RESULT payloads are pickled lists of whatever the scan backend emits
(``RoutedMessage`` for router specs, ``DetectEvent`` for tagger
specs). Only the *client* unpickles, and only bytes sent by the server
it chose to connect to — the server never unpickles client data, so an
untrusted client cannot inject objects.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass
from typing import Any

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
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServerFault",
    "decode_advance",
    "decode_batch_advance",
    "decode_data",
    "decode_error",
    "decode_finish_flow",
    "decode_hello",
    "decode_hello_grammars",
    "decode_mask",
    "decode_masks",
    "decode_open_beam",
    "decode_open_flow",
    "decode_open_mask",
    "decode_result",
    "encode_advance",
    "encode_batch_advance",
    "encode_data",
    "encode_error",
    "encode_finish_flow",
    "encode_frame",
    "encode_goodbye",
    "encode_hello",
    "encode_mask",
    "encode_masks",
    "encode_masks_records",
    "encode_open_beam",
    "encode_open_flow",
    "encode_open_mask",
    "encode_result",
]

#: Protocol version spoken by this build (bumped on incompatible change).
PROTOCOL_VERSION = 1

#: Default largest accepted frame (type byte + payload), 1 MiB.
DEFAULT_MAX_FRAME = 1 << 20

#: ``flow_id`` addressing the connection itself in ERROR frames.
CONNECTION_FLOW = 0xFFFFFFFF

_HEADER = struct.Struct("!I")
_HELLO = struct.Struct("!HI")
_FLOW = struct.Struct("!I")
_RESULT_HEAD = struct.Struct("!IB")
_ERROR_HEAD = struct.Struct("!IH")
_MASK_HEAD = struct.Struct("!II")
_BEAM_OPEN_HEAD = struct.Struct("!IH")
_BATCH_HEAD = struct.Struct("!IB")
_MASKS_HEAD = struct.Struct("!IHH")
#: Widest mask row a MASKS frame can carry: ``row_bytes`` and the
#: delta entries' byte offsets are u16.
MAX_MASKS_ROW_BYTES = 0xFFFF
_LANE_HEAD = struct.Struct("!IB")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")

#: Raw sha256 digest length carried by OPEN_MASK.
_VOCAB_HASH_LEN = 32

#: Largest beam width OPEN_BEAM accepts (the field is u16; the cap
#: keeps a hostile open from allocating thousands of lanes).
MAX_BEAM_WIDTH = 1024


class FrameType:
    """Wire frame type codes (u8)."""

    HELLO = 0x01
    OPEN_FLOW = 0x02
    DATA = 0x03
    FINISH_FLOW = 0x04
    RESULT = 0x05
    ERROR = 0x06
    GOODBYE = 0x07
    OPEN_MASK = 0x08
    ADVANCE = 0x09
    MASK = 0x0A
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
        OPEN_MASK: "OPEN_MASK",
        ADVANCE: "ADVANCE",
        MASK: "MASK",
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
    #: A routing tier lost the flow's backend and could not (or by
    #: contract will not) replay it onto another — beam flows, or
    #: replay exhaustion. The flow is dead; reopen to continue.
    FAILOVER = 12

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


@dataclass(frozen=True)
class Frame:
    """One decoded wire frame: type code plus raw payload."""

    type: int
    payload: bytes

    @property
    def name(self) -> str:
        return FrameType.NAMES.get(self.type, f"0x{self.type:02x}")


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def encode_frame(ftype: int, payload: bytes = b"") -> bytes:
    """``length | type | payload`` — the one frame shape on the wire."""
    return _HEADER.pack(1 + len(payload)) + bytes([ftype]) + payload


def encode_hello(
    version: int = PROTOCOL_VERSION,
    max_frame: int = DEFAULT_MAX_FRAME,
    grammars: tuple[str, ...] | list[str] = (),
) -> bytes:
    """``grammars`` (optional, server→client) advertises the registry
    refs this server can serve, appended after the fixed fields as a
    comma-separated UTF-8 list. Decoding uses ``unpack_from``, so
    peers that predate the field simply ignore the extra bytes — the
    handshake stays version-compatible both ways."""
    payload = _HELLO.pack(version, max_frame)
    if grammars:
        payload += ",".join(grammars).encode("utf-8")
    return encode_frame(FrameType.HELLO, payload)


def encode_open_flow(flow_id: int) -> bytes:
    return encode_frame(FrameType.OPEN_FLOW, _FLOW.pack(flow_id))


def encode_data(flow_id: int, chunk: bytes) -> bytes:
    return encode_frame(FrameType.DATA, _FLOW.pack(flow_id) + chunk)


def encode_finish_flow(flow_id: int) -> bytes:
    return encode_frame(FrameType.FINISH_FLOW, _FLOW.pack(flow_id))


def encode_result(flow_id: int, final: bool, items: list) -> bytes:
    blob = pickle.dumps(items, protocol=pickle.HIGHEST_PROTOCOL)
    return encode_frame(
        FrameType.RESULT, _RESULT_HEAD.pack(flow_id, 1 if final else 0) + blob
    )


def encode_error(flow_id: int, code: int, message: str) -> bytes:
    return encode_frame(
        FrameType.ERROR,
        _ERROR_HEAD.pack(flow_id, code) + message.encode("utf-8"),
    )


def encode_goodbye() -> bytes:
    return encode_frame(FrameType.GOODBYE)


def encode_open_mask(flow_id: int, vocab_hash: str | bytes) -> bytes:
    """Open a constrained-decoding flow against a vocabulary,
    identified by its sha256 (hex string or 32 raw bytes)."""
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
    return encode_frame(FrameType.OPEN_MASK, _FLOW.pack(flow_id) + digest)


def encode_advance(flow_id: int, token_id: int) -> bytes:
    return encode_frame(
        FrameType.ADVANCE, _MASK_HEAD.pack(flow_id, token_id)
    )


def encode_mask(flow_id: int, state: int, row: bytes) -> bytes:
    """A packed validity row for ``state`` (bit *i*, LSB-first per
    byte, is token *i*). Raw bits — no pickle on mask flows."""
    return encode_frame(
        FrameType.MASK, _MASK_HEAD.pack(flow_id, state) + row
    )


def encode_open_beam(
    flow_id: int, width: int, vocab_hash: str | bytes
) -> bytes:
    """Open a beam flow of ``width`` lanes against a vocabulary."""
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
    count."""
    head = _BATCH_HEAD.pack(flow_id, op)
    if op == BeamOp.ADVANCE:
        if not arg:
            raise ProtocolError("ADVANCE carries no token ids")
        body = struct.pack(f"!{len(arg)}I", *arg)
    elif op in (BeamOp.FORK, BeamOp.ROLLBACK):
        body = _U32.pack(arg)
    else:
        raise ProtocolError(f"unknown beam op {op}")
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


def decode_hello_grammars(frame: Frame) -> tuple[str, ...]:
    """The grammar refs advertised after the fixed HELLO fields
    (empty for peers that do not send the field)."""
    extra = frame.payload[_HELLO.size :]
    if not extra:
        return ()
    text = extra.decode("utf-8", "replace")
    return tuple(ref for ref in text.split(",") if ref)


def decode_open_flow(frame: Frame) -> int:
    return _unpack(_FLOW, frame)[0]


def decode_data(frame: Frame) -> tuple[int, bytes]:
    (flow_id,) = _unpack(_FLOW, frame)
    return flow_id, frame.payload[_FLOW.size :]


def decode_finish_flow(frame: Frame) -> int:
    return _unpack(_FLOW, frame)[0]


def decode_result(frame: Frame) -> tuple[int, bool, list]:
    """-> (flow_id, final, items). Unpickles: server->client only."""
    flow_id, final = _unpack(_RESULT_HEAD, frame)
    try:
        items = pickle.loads(frame.payload[_RESULT_HEAD.size :])
    except Exception as exc:
        raise ProtocolError(f"undecodable RESULT payload: {exc}") from exc
    return flow_id, bool(final), items


def decode_open_mask(frame: Frame) -> tuple[int, str]:
    """-> (flow_id, vocab_hash hex)."""
    (flow_id,) = _unpack(_FLOW, frame)
    digest = frame.payload[_FLOW.size :]
    if len(digest) != _VOCAB_HASH_LEN:
        raise ProtocolError(
            f"OPEN_MASK carries {len(digest)} hash bytes, "
            f"expected {_VOCAB_HASH_LEN}"
        )
    return flow_id, digest.hex()


def decode_advance(frame: Frame) -> tuple[int, int]:
    """-> (flow_id, token_id)."""
    return _unpack(_MASK_HEAD, frame)  # type: ignore[return-value]


def decode_mask(frame: Frame) -> tuple[int, int, bytes]:
    """-> (flow_id, state, packed row)."""
    flow_id, state = _unpack(_MASK_HEAD, frame)
    return flow_id, state, frame.payload[_MASK_HEAD.size :]


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


def decode_error(frame: Frame) -> tuple[int, int, str]:
    """-> (flow_id, code, message)."""
    flow_id, code = _unpack(_ERROR_HEAD, frame)
    message = frame.payload[_ERROR_HEAD.size :].decode("utf-8", "replace")
    return flow_id, code, message


# ----------------------------------------------------------------------
class FrameDecoder:
    """Incremental sans-IO frame parser with a hard size limit.

    Feed arbitrary byte slices (socket reads, test vectors); complete
    frames come back in arrival order. A declared length above
    ``max_frame`` raises :class:`ProtocolError` *immediately* — before
    any of the body arrives — so a hostile length prefix cannot make
    the receiver buffer an unbounded body.
    """

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self.max_frame = max_frame
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[Frame]:
        self._buffer += data
        frames: list[Frame] = []
        while True:
            if len(self._buffer) < _HEADER.size:
                return frames
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > self.max_frame:
                raise ProtocolError(
                    f"frame of {length} bytes exceeds limit "
                    f"{self.max_frame}",
                    code=ErrorCode.FRAME_TOO_LARGE,
                )
            if length < 1:
                raise ProtocolError("frame with empty body")
            if len(self._buffer) < _HEADER.size + length:
                return frames
            body = bytes(
                self._buffer[_HEADER.size : _HEADER.size + length]
            )
            del self._buffer[: _HEADER.size + length]
            frames.append(Frame(body[0], body[1:]))

    def pending(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self._buffer)
