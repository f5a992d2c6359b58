"""XML-RPC message model and serializer.

Messages serialize to exactly the wire format of the paper's Fig. 14
grammar — notably *without* ``<value>`` wrapper tags (Fig. 14 inlines
``value`` into ``param``) and with ``<data>`` holding at most one
value (Fig. 14's ``data`` rule is a single optional value). Lexical
restrictions of the grammar are enforced at construction: STRING
payloads are alphanumeric, method names are alphanumeric, base64
payloads use the ``[+/A-Za-z0-9]`` alphabet.

The routed side of the model lives here too — :class:`RoutedMessage`
and its payload-free form :class:`RouteRecord` — in a module that
imports nothing of the scan engine, so a client decoding routed
results off the wire loads only this.  Both are ``NamedTuple`` s, so
the kernel builds them without Python code and a decoder without
``__init__``: a :class:`RoutedMessage` unpacks into its five fields,
orders like a tuple, and equals (and hashes like) the plain tuple
``(start, end, port, service, payload)``; ``dataclasses.replace``
takes one too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, make_dataclass
from typing import NamedTuple, Union

from repro.errors import BackendError

_ALNUM = re.compile(r"^[a-zA-Z0-9]+$")
_BASE64 = re.compile(r"^[+/A-Za-z0-9]+$")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BackendError(message)


@dataclass(frozen=True)
class IntValue:
    """``<int>`` — decimal integer with optional sign."""

    value: int

    def serialize(self) -> str:
        return f"<int>{self.value}</int>"


@dataclass(frozen=True)
class I4Value:
    """``<i4>`` — 32-bit integer."""

    value: int

    def __post_init__(self) -> None:
        _require(-(2**31) <= self.value < 2**31, "i4 out of 32-bit range")

    def serialize(self) -> str:
        return f"<i4>{self.value}</i4>"


@dataclass(frozen=True)
class StringValue:
    """``<string>`` — alphanumeric per the Fig. 14 STRING token."""

    value: str

    def __post_init__(self) -> None:
        _require(
            bool(_ALNUM.match(self.value)),
            f"STRING must be alphanumeric, got {self.value!r}",
        )

    def serialize(self) -> str:
        return f"<string>{self.value}</string>"


@dataclass(frozen=True)
class DoubleValue:
    """``<double>`` — signed decimal with a fractional part."""

    value: float

    def serialize(self) -> str:
        text = f"{self.value:.6f}".rstrip("0")
        if text.endswith("."):
            text += "0"
        return f"<double>{text}</double>"


@dataclass(frozen=True)
class DateTimeValue:
    """``<dateTime.iso8601>`` — YYYYMMDDTHH:MM:SS."""

    year: int
    month: int
    day: int
    hour: int
    minute: int
    second: int

    def __post_init__(self) -> None:
        _require(1000 <= self.year <= 9999, "year must be four digits")
        _require(1 <= self.month <= 12, "bad month")
        _require(1 <= self.day <= 31, "bad day")
        _require(0 <= self.hour <= 23, "bad hour")
        _require(0 <= self.minute <= 59, "bad minute")
        _require(0 <= self.second <= 59, "bad second")

    def serialize(self) -> str:
        return (
            f"<dateTime.iso8601>{self.year:04d}{self.month:02d}"
            f"{self.day:02d}T{self.hour:02d}:{self.minute:02d}:"
            f"{self.second:02d}</dateTime.iso8601>"
        )


@dataclass(frozen=True)
class Base64Value:
    """``<base64>`` — payload over the Fig. 14 BASE64 alphabet."""

    value: str

    def __post_init__(self) -> None:
        _require(
            bool(_BASE64.match(self.value)),
            f"BASE64 must match [+/A-Za-z0-9]+, got {self.value!r}",
        )

    def serialize(self) -> str:
        return f"<base64>{self.value}</base64>"


@dataclass(frozen=True)
class StructValue:
    """``<struct>`` — one or more named members."""

    members: tuple[tuple[str, "Value"], ...]

    def __post_init__(self) -> None:
        _require(len(self.members) >= 1, "struct needs at least one member")
        for name, _value in self.members:
            _require(
                bool(_ALNUM.match(name)),
                f"member name must be alphanumeric, got {name!r}",
            )

    def serialize(self) -> str:
        parts = ["<struct>"]
        for name, value in self.members:
            parts.append(
                f"<member><name>{name}</name>{value.serialize()}</member>"
            )
        parts.append("</struct>")
        return "".join(parts)


@dataclass(frozen=True)
class ArrayValue:
    """``<array>`` — Fig. 14 allows at most one value in ``<data>``."""

    item: Union["Value", None] = None

    def serialize(self) -> str:
        if self.item is None:
            return "<array></array>"
        return f"<array><data>{self.item.serialize()}</data></array>"


Value = Union[
    IntValue,
    I4Value,
    StringValue,
    DoubleValue,
    DateTimeValue,
    Base64Value,
    StructValue,
    ArrayValue,
]


@dataclass(frozen=True)
class MethodCall:
    """A complete XML-RPC method call."""

    method: str
    params: tuple[Value, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        _require(
            bool(_ALNUM.match(self.method)),
            f"method name must be alphanumeric, got {self.method!r}",
        )

    def serialize(self) -> str:
        parts = [f"<methodCall><methodName>{self.method}</methodName><params>"]
        for value in self.params:
            parts.append(f"<param>{value.serialize()}</param>")
        parts.append("</params></methodCall>")
        return "".join(parts)

    def encode(self) -> bytes:
        return self.serialize().encode("ascii")


class RouteRecord(NamedTuple):
    """One routing decision by span: what the streaming router
    assembles and the wire carries. The message's bytes are
    ``stream[start:end]`` — whoever holds the stream has the payload."""

    start: int
    end: int
    port: int
    service: str | None


class RoutedMessage(NamedTuple):
    """One message with its routing decision."""

    start: int
    end: int
    port: int
    service: str | None
    payload: bytes

    def __str__(self) -> str:
        return f"[{self.start}:{self.end}] -> port {self.port} ({self.service})"


# ``dataclasses.replace`` and ``dataclasses.fields`` take a RoutedMessage
# as well, for callers written against its dataclass contract (the
# ledger's injected-mismatch test rebuilds one with another port).
RoutedMessage.__dataclass_fields__ = make_dataclass(
    "RoutedMessage", RoutedMessage._fields, frozen=True
).__dataclass_fields__
