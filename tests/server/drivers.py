"""Verifying reference drivers for the server tests.

Each driver runs a closed loop — a fixed population of
:class:`~repro.server.ScanClient` connections pulling seeded work off
one queue — against a live server or proxy and checks *every* reply
against the in-process reference (``ContentBasedRouter.route`` for
scan flows, :class:`~repro.apps.structgen.MaskSession` mirrors for
beam flows — a single decode is ``run_beam_load(width=1)``).  They measure nothing: a run returns what was
done, ``failures`` (exceptions, as ``"<unit>: <error>"``),
``mismatches`` (replies that differed from the reference) and
``verified`` (neither).  Numbers come from ``benchmarks/ledger/``.
"""

from __future__ import annotations

import asyncio
import random

from repro.apps.structgen import MaskSession
from repro.apps.xmlrpc import ContentBasedRouter, WorkloadGenerator
from repro.server import ScanClient


def set_bits(row: bytes) -> list[int]:
    """Token ids whose bits are set in a packed LSB-first mask row."""
    out: list[int] = []
    for byte_index, value in enumerate(row):
        while value:
            low = value & -value
            out.append(byte_index * 8 + low.bit_length() - 1)
            value ^= low
    return out


async def _closed_loop(
    host, port, units, drive, concurrency, request_timeout, failures
) -> None:
    """``concurrency`` connections each run ``drive(client, name,
    unit)`` on ``(name, unit)`` pairs from one shared queue until it is
    empty; an exception fails that unit only."""
    work: asyncio.Queue = asyncio.Queue()
    for item in units:
        work.put_nowait(item)

    async def worker() -> None:
        client = ScanClient(host, port, request_timeout=request_timeout)
        await client.connect()
        try:
            while not work.empty():
                name, unit = work.get_nowait()
                try:
                    await drive(client, name, unit)
                except Exception as exc:
                    failures.append(f"{name}: {exc}")
        finally:
            await client.close()

    await asyncio.gather(*(worker() for _ in range(concurrency)))


def _report(failures: list, mismatches: list, **counts) -> dict:
    return {
        **counts,
        "failures": failures,
        "mismatches": mismatches,
        "verified": not failures and not mismatches,
    }


async def run_load(
    host: str,
    port: int,
    *,
    flows: int = 8,
    messages: int = 200,
    chunk: int = 1024,
    concurrency: int = 4,
    seed: int = 2006,
    request_timeout: float = 60.0,
) -> dict:
    """Seeded XML-RPC flows (``messages`` split evenly), each sent as
    ``chunk``-byte DATA frames; every flow's routed messages must equal
    the single-process ``route()`` of the same bytes."""
    generator = WorkloadGenerator(seed=seed)
    per_flow = max(1, messages // flows)
    streams = {
        f"flow-{index}": generator.stream(per_flow)[0]
        for index in range(flows)
    }
    router = ContentBasedRouter()
    expected = {name: router.route(data) for name, data in streams.items()}
    failures: list[str] = []
    mismatches: list[str] = []

    async def drive(client: ScanClient, name: str, data: bytes) -> None:
        got = await client.scan_stream(data, chunk_size=chunk)
        if got != expected[name]:
            mismatches.append(name)

    await _closed_loop(
        host, port, streams.items(), drive,
        concurrency, request_timeout, failures,
    )
    return _report(
        failures, mismatches,
        flows=flows,
        messages=per_flow * flows,
        bytes=sum(len(data) for data in streams.values()),
    )


async def run_beam_load(
    host: str,
    port: int,
    table,
    *,
    beams: int = 2,
    width: int = 4,
    steps: int = 48,
    max_width: int = 12,
    concurrency: int = 2,
    seed: int = 2006,
    request_timeout: float = 30.0,
) -> dict:
    """Beam flows with fork/rollback mixed into the schedule; after
    every op the remote per-lane ``(state, row)`` pairs — after
    client-side delta patching, so the delta encoding is verified over
    the wire — must equal ``width`` (growing/shrinking) independent
    :class:`MaskSession` mirrors.  ``lanes_full``/``lanes_delta`` and
    ``wire_payload_bytes`` against ``wire_full_bytes`` (every lane as
    a full row) say how the MASKS frames were actually encoded."""
    failures: list[str] = []
    mismatches: list[str] = []
    counts = dict.fromkeys(
        ("ops", "masks", "lanes_full", "lanes_delta",
         "wire_payload_bytes", "wire_full_bytes"), 0
    )

    def settle(flow) -> None:
        """Fold one closed flow's wire accounting into the totals."""
        counts["lanes_full"] += flow.lanes_full
        counts["lanes_delta"] += flow.lanes_delta
        counts["wire_payload_bytes"] += flow.payload_bytes
        counts["wire_full_bytes"] += (
            flow.lanes_full + flow.lanes_delta
        ) * table.row_bytes
        # The finally below settles whichever flow is current; one a
        # failed reopen left behind must not count twice.
        flow.lanes_full = flow.lanes_delta = flow.payload_bytes = 0

    def check(flow, mirror, name: str, step, what: str) -> bool:
        want_states = tuple(m.state for m in mirror)
        if flow.states != want_states:
            mismatches.append(
                f"{name}: {what} at step {step}: states "
                f"{flow.states} != {want_states}"
            )
            return False
        for lane, m in enumerate(mirror):
            if flow.rows[lane] != m.mask():
                mismatches.append(
                    f"{name}: {what} at step {step}: "
                    f"lane {lane} row mismatch"
                )
                return False
        return True

    async def drive(client: ScanClient, name: str, index: int) -> None:
        rng = random.Random(seed + index)
        mirror = [MaskSession(table) for _ in range(width)]
        history: list[list[int]] = []
        flow = await client.open_beam_flow(table.vocab_hash, width)
        try:
            if not check(flow, mirror, name, "open", "initial MASKS"):
                return
            for step in range(steps):
                roll = rng.random()
                if roll < 0.10 and len(mirror) < max_width:
                    lane = rng.randrange(len(mirror))
                    history.append([m.state for m in mirror])
                    twin = MaskSession(table)
                    twin.state = mirror[lane].state
                    mirror.append(twin)
                    await flow.fork(lane)
                    what = f"fork({lane})"
                elif roll < 0.20 and history:
                    k = rng.randrange(1, min(3, len(history)) + 1)
                    for _ in range(k):
                        snapshot = history.pop()
                    del mirror[len(snapshot):]
                    while len(mirror) < len(snapshot):
                        mirror.append(MaskSession(table))
                    for m, s in zip(mirror, snapshot):
                        m.state = s
                    await flow.rollback(k)
                    what = f"rollback({k})"
                else:
                    choices = [set_bits(m.mask()) for m in mirror]
                    if not all(choices):
                        # Dead end: no beam-wide reset frame, so
                        # reopen.
                        await flow.close()
                        settle(flow)
                        mirror = [
                            MaskSession(table) for _ in range(width)
                        ]
                        history.clear()
                        flow = await client.open_beam_flow(
                            table.vocab_hash, width
                        )
                        if not check(flow, mirror, name, step, "reopen"):
                            return
                        continue
                    ids = [rng.choice(valid) for valid in choices]
                    history.append([m.state for m in mirror])
                    await flow.advance(ids)
                    for m, t in zip(mirror, ids):
                        m.advance(t)
                    what = "advance"
                counts["ops"] += 1
                counts["masks"] += len(mirror)
                if not check(flow, mirror, name, step, what):
                    return
        finally:
            try:
                await flow.close()
            except Exception:
                pass
            settle(flow)

    await _closed_loop(
        host, port,
        [(f"beam-{index}", index) for index in range(beams)],
        drive, concurrency, request_timeout, failures,
    )
    return _report(failures, mismatches, beams=beams, **counts)
