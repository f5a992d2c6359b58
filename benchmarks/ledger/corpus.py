"""Seeded corpora and generator-derived ground truth for the ledger.

The benchmark process builds every input from ``--seed``; the programs
under test receive only bytes and token ids.  Expected results come
from what the generator *knows* it wrote (message count, byte spans,
service -> port through the ``ServiceTable``), never from
``ContentBasedRouter`` or the server, so a bug shared by every engine
still shows up as a mismatch.
"""

from __future__ import annotations

import base64
import random
from dataclasses import dataclass

import numpy as np

from repro.apps.structgen import MaskSession, build_mask_table, synthetic_vocab
from repro.apps.xmlrpc import WorkloadGenerator
from repro.apps.xmlrpc.messages import Base64Value, MethodCall
from repro.apps.xmlrpc.router import RoutedMessage
from repro.apps.xmlrpc.services import BANK_SHOPPING_TABLE
from repro.grammar.examples import xmlrpc

_SEPARATOR = b"\n"

#: Per-flow payload sizes (KiB) of ``scan-bulk``: every flow carries the
#: same 40 KiB in a seeded order, so flow time does not vary with the
#: seed's draw of sizes.
_BULK_PAYLOAD_KIB = (2, 3, 4, 5, 5, 6, 7, 8)


class CorpusError(AssertionError):
    """A workload does not have the property it was built to have;
    the run aborts rather than measure something else."""


@dataclass(frozen=True)
class ScanFlow:
    data: bytes
    expected: tuple  # of RoutedMessage, from the generator


@dataclass(frozen=True)
class ScanCorpus:
    name: str
    chunk: int
    flows: tuple  # of ScanFlow

    @property
    def total_bytes(self) -> int:
        return sum(len(flow.data) for flow in self.flows)

    def chunks(self, flow: ScanFlow) -> list[bytes]:
        data, size = flow.data, self.chunk
        return [data[i : i + size] for i in range(0, len(data), size)]


def _flow(calls_and_ports) -> ScanFlow:
    """Join encoded calls the way ``WorkloadGenerator.stream`` does and
    derive each message's span and route from the calls themselves."""
    expected = []
    parts = []
    position = 0
    for call, port in calls_and_ports:
        payload = call.encode()
        expected.append(
            RoutedMessage(
                start=position,
                end=position + len(payload),
                port=port,
                service=call.method,
                payload=payload,
            )
        )
        parts.append(payload)
        position += len(payload) + len(_SEPARATOR)
    return ScanFlow(_SEPARATOR.join(parts), tuple(expected))


def _generated(seed: int, flows: int, messages: int) -> tuple:
    generator = WorkloadGenerator(seed=seed)
    return tuple(
        _flow(
            (call, port)
            for call, port, _decoy in (
                generator.message() for _ in range(messages)
            )
        )
        for _ in range(flows)
    )


def _bulk(seed: int, flows: int) -> tuple:
    rng = random.Random(seed)
    table = BANK_SHOPPING_TABLE
    out = []
    for _ in range(flows):
        sizes = list(_BULK_PAYLOAD_KIB)
        rng.shuffle(sizes)
        calls = []
        for first, second in zip(sizes[0::2], sizes[1::2]):
            service = rng.choice(table.services)
            params = tuple(
                # 768 random bytes encode to exactly 1 KiB of the
                # grammar's BASE64 alphabet, without '=' padding.
                Base64Value(
                    base64.b64encode(rng.randbytes(768 * kib)).decode()
                )
                for kib in (first, second)
            )
            calls.append(
                (MethodCall(service, params), table.port_of(service))
            )
        out.append(_flow(calls))
    return tuple(out)


def scan_corpus(name: str, seed: int) -> ScanCorpus:
    if name == "scan-dense":
        return ScanCorpus(name, 4096, _generated(seed, 64, 200))
    if name == "scan-bulk":
        return ScanCorpus(name, 4096, _bulk(seed, 16))
    if name == "scan-shortflows":
        return ScanCorpus(name, 256, _generated(seed, 256, 2))
    raise KeyError(name)


def reference_corpus(seed: int) -> ScanCorpus:
    """The ``scan-dense`` recipe at an eighth of the size: what the
    in-process scan rungs run on when the workload itself sends no
    bytes to scan (``decode-*``)."""
    return ScanCorpus("scan-dense", 4096, _generated(seed, 8, 200))


def bytes_per_event(corpus: ScanCorpus, tagger, flows: int = 4) -> float:
    sample = corpus.flows[:flows]
    events = sum(len(tagger.events(flow.data)) for flow in sample)
    return sum(len(flow.data) for flow in sample) / events


def assert_scan_discriminates(seed: int, tagger) -> None:
    """``scan-bulk`` must carry >= 50x the bytes per event of
    ``scan-dense``, or the pair no longer separates per-event from
    per-byte work."""
    dense = bytes_per_event(scan_corpus("scan-dense", seed), tagger)
    bulk = bytes_per_event(scan_corpus("scan-bulk", seed), tagger)
    if bulk < 50 * dense:
        raise CorpusError(
            f"scan-bulk has {bulk:.0f} B/event, scan-dense {dense:.1f}: "
            "less than 50x apart"
        )


# ----------------------------------------------------------------------
# constrained decoding
# ----------------------------------------------------------------------
BEAM_WIDTH = 8
BEAM_MAX_WIDTH = 16
OPS_PER_FLOW = 48
_VOCAB_SIZES = {"decode-ci": 4096, "decode-cd": 16384}
VOCAB_SEED = 7


class DecodeCorpus:
    """The vocabulary, its in-process mask table, and the per-state
    reference rows the load generator checks replies against."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.vocab_size = _VOCAB_SIZES[name]
        self.table = build_mask_table(
            xmlrpc(), synthetic_vocab(self.vocab_size, VOCAB_SEED)
        )
        cd = len(self.table.cd_ids)
        if name == "decode-ci" and cd != 0:
            raise CorpusError(f"decode-ci has {cd} context-dependent tokens")
        if name == "decode-cd" and cd <= 1000:
            raise CorpusError(
                f"decode-cd has only {cd} context-dependent tokens"
            )
        self._mirror = MaskSession(self.table)
        self._rows: dict[int, bytes] = {}
        self._valid: dict[int, np.ndarray] = {}

    @property
    def row_bytes(self) -> int:
        return self.table.row_bytes

    def row(self, state: int) -> bytes:
        """The packed mask an independent ``MaskSession`` serves in
        ``state`` (a pure function of the state, so kept per state)."""
        row = self._rows.get(state)
        if row is None:
            self._mirror.state = state
            row = self._rows[state] = self._mirror.mask()
        return row

    def valid_tokens(self, state: int) -> np.ndarray:
        """Token ids valid in ``state``, without a Python bit loop."""
        valid = self._valid.get(state)
        if valid is None:
            bits = np.unpackbits(
                np.frombuffer(self.row(state), dtype=np.uint8),
                bitorder="little",
            )
            valid = self._valid[state] = np.flatnonzero(bits)
        return valid

    def flow_rng(self, index: int) -> random.Random:
        return random.Random(self.seed * 1_000_003 + index)
