"""Closed-loop load generators: one asyncio process, two connections.

Each connection sends its next request only after the previous reply
arrived (callers that wait for their answer), so a slower system
receives less load and the numbers are throughput and latency at
saturation with two callers, not queue growth.  Every reply is checked
against the corpus's own ground truth; a mismatch, error, refusal or
timeout is a failed operation.

An *operation* is one flow on the scan workloads and one beam op
(advance / fork / rollback, plus each open) on the decode workloads.
"""

from __future__ import annotations

import asyncio
import itertools
import statistics
import time

from repro.apps.structgen.beam import apply_xor_patch
from repro.server import protocol
from repro.server.client import ScanClient
from repro.server.protocol import BeamOp, FrameType, ServerFault

import corpus as corpus_mod
import hostclock
from spans import OFF

CONNECTIONS = 2
#: Seconds per window: short, so that each window's host-speed
#: calibration (taken at its two edges) is close to the work it scales.
WINDOW_S = 0.25
#: Seconds one operation may take before it counts as failed.
OP_TIMEOUT = 20.0


class Tally:
    """Everything one measured phase observed, bucketed into windows
    by completion time, with the host-speed calibration taken at every
    window edge."""

    def __init__(self, windows: int, window_s: float = WINDOW_S) -> None:
        self.window_s = window_s
        self.windows = windows
        self.start: float | None = None  # set when warm-up ends
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: Per window, the hostclock.Reading at its [left, right] edge;
        #: None where none was taken.
        self.edges: list = [[None, None] for _ in range(windows)]
        # per window: payload bytes, reply units, flow and step times
        self.bytes = [0] * windows
        self.units = [0] * windows
        self.flow_s = [[] for _ in range(windows)]
        self.step_s = [[] for _ in range(windows)]

    @classmethod
    def lasting(cls, seconds: float) -> "Tally":
        return cls(max(1, round(seconds / WINDOW_S)))

    @property
    def end(self) -> float:
        return self.start + self.window_s * self.windows

    def _window(self, now: float) -> int | None:
        if self.start is None or now < self.start:
            return None
        index = int((now - self.start) / self.window_s)
        return index if index < self.windows else None

    def flow_done(self, now: float, seconds: float) -> None:
        window = self._window(now)
        if window is not None:
            self.flow_s[window].append(seconds)

    def step_done(
        self, now: float, seconds: float, nbytes: int, units: int
    ) -> None:
        """One operation completed and verified."""
        window = self._window(now)
        if window is not None:
            self.attempted += 1
            self.step_s[window].append(seconds)
            self.bytes[window] += nbytes
            self.units[window] += units

    def op_failed(self, now: float, what: str) -> None:
        if self._window(now) is not None:
            self.attempted += 1
            self.failed += 1
        if len(self.errors) < 8:
            self.errors.append(what)

    def absorb(self, other: "Tally") -> "Tally":
        """Append another phase's windows (same length) to this one's."""
        self.windows += other.windows
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors
        self.edges += other.edges
        self.bytes += other.bytes
        self.units += other.units
        self.flow_s += other.flow_s
        self.step_s += other.step_s
        return self

    # ------------------------------------------------------------------
    def calibrated(self, edge: int, reading: hostclock.Reading) -> None:
        """The probes at edge ``edge`` (between windows ``edge - 1``
        and ``edge``) read ``reading``."""
        if edge > 0:
            self.edges[edge - 1][1] = reading
        if edge < self.windows:
            self.edges[edge][0] = reading

    def scales(self) -> list:
        """Per window, the factor that brings a duration measured in it
        to reference host speed (1.0 where no calibration was taken:
        a phase that failed before its first window)."""
        out = []
        for left, right in self.edges:
            taken = [r for r in (left, right) if r is not None]
            out.append(
                hostclock.scale(taken, hostclock.SERVED) if taken else 1.0
            )
        return out

    def scale(self) -> float:
        """One factor for a quantity accumulated over the whole phase
        (CPU seconds): the median window's."""
        return statistics.median(self.scales())

    def _rates(self, amounts: list) -> list:
        """Per-window amount per reference-speed second.  The loop is
        blocked while the left-edge probes run, so that time is not
        part of the window."""
        blocked = [left.cpu_s if left else 0.0 for left, _right in self.edges]
        return [
            amount / ((self.window_s - blocked_s) * scale)
            for amount, blocked_s, scale in zip(
                amounts, blocked, self.scales()
            )
        ]

    def _scaled(self, per_window: list) -> list:
        """Every duration of every window at reference speed, sorted."""
        return sorted(
            seconds * scale
            for window, scale in zip(per_window, self.scales())
            for seconds in window
        )

    def summary(self) -> dict:
        """name -> {value, raw, ...}.  Throughputs are the median over
        the windows (min and max beside it); latencies are quantiles of
        all samples of the phase.  ``value`` is at reference host speed,
        ``raw`` as the wall clock saw it."""
        out = {}
        for name, amounts, per in (
            ("served_mbps", self.bytes, 1e6), ("masks_per_s", self.units, 1)
        ):
            rates = [rate / per for rate in self._rates(amounts)]
            out[name] = {
                "value": statistics.median(rates),
                "min": min(rates),
                "max": max(rates),
                "raw": statistics.median(amounts) / self.window_s / per,
            }
        for kind, per_window in (("flow", self.flow_s), ("step", self.step_s)):
            scaled = self._scaled(per_window)
            raw = sorted(itertools.chain.from_iterable(per_window))
            for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
                out[f"{kind}_{label}_ms"] = {
                    "value": _quantile(scaled, q),
                    "raw": _quantile(raw, q),
                    "samples": len(raw),
                }
        return out

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes)

    @property
    def total_flows(self) -> int:
        return sum(len(s) for s in self.flow_s)


def _quantile(ordered_s: list, q: float) -> float:
    """Quantile ``q`` of sorted seconds, in milliseconds; 0.0 when a
    tail does not have ten samples beyond it (or there are none)."""
    n = len(ordered_s)
    if n == 0 or (q > 0.5 and n * (1.0 - q) < 10):
        return 0.0
    return ordered_s[min(n - 1, int(q * n))] * 1e3


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
async def _closed_loop(port, one_flow, tally, warmup_s) -> None:
    """``CONNECTIONS`` callers share one flow counter; each runs
    ``one_flow(client, index)`` back to back until the last window
    closes.  A caller whose connection died reconnects, and every flow
    it could not run is a failed operation.  A third task times the
    host-speed calibration at every window edge."""
    counter = itertools.count()
    tally.start = time.perf_counter() + warmup_s

    async def calibrate() -> None:
        for edge in range(tally.windows + 1):
            delay = tally.start + edge * tally.window_s - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tally.calibrated(edge, hostclock.spin())

    async def drop(client) -> None:
        try:
            async with asyncio.timeout(5.0):
                await client.close()
        except Exception:
            pass  # a dead peer cannot say GOODBYE; nothing to report

    async def caller() -> None:
        client = None
        try:
            while time.perf_counter() < tally.end:
                try:
                    async with asyncio.timeout(OP_TIMEOUT):
                        if client is None:
                            client = ScanClient(
                                "127.0.0.1", port, connect_retries=2,
                                request_timeout=OP_TIMEOUT,
                            )
                            await client.connect()
                        await one_flow(client, next(counter))
                except Exception as exc:  # boundary that must keep going
                    tally.op_failed(
                        time.perf_counter(), f"{type(exc).__name__}: {exc}"
                    )
                    # The flow's server-side state is unknown now:
                    # start the next one on a fresh connection.
                    await drop(client)
                    client = None
        finally:
            if client is not None:
                await drop(client)

    await asyncio.gather(
        calibrate(), *(caller() for _ in range(CONNECTIONS))
    )


async def run_scan(
    port: int, corpus, tally: Tally, *, warmup_s: float, recorder=OFF
) -> None:
    """Cycle through the corpus's flows: OPEN_FLOW, DATA per chunk,
    FINISH_FLOW, wait for the final RESULT, compare with the
    generator's ground truth."""
    prepared = [
        (corpus.chunks(flow), list(flow.expected), len(flow.data))
        for flow in corpus.flows
    ]
    clock = time.perf_counter

    async def one_flow(client, index: int) -> None:
        chunks, expected, nbytes = prepared[index % len(prepared)]
        with recorder.root("flow", index) as span:
            with span.child("open"):
                flow = await client.open_flow()
            first_data = clock()
            for chunk in chunks:
                with span.child("send"):
                    await flow.send(chunk)
            finish_sent = clock()
            with span.child("wait_result"):
                got = await flow.finish()
            done = clock()
            with span.child("verify"):
                ok = got == expected
        if not ok:
            tally.op_failed(done, f"flow {index}: result mismatch")
            return
        tally.step_done(done, done - finish_sent, nbytes, len(expected))
        tally.flow_done(done, done - first_data)

    await _closed_loop(port, one_flow, tally, warmup_s)


# ----------------------------------------------------------------------
# decode
# ----------------------------------------------------------------------
class DecodeRecord:
    """What the traced pass keeps for the in-process rungs: the op
    schedule as sent, the MASKS lanes as received, one lane's path."""

    #: Ops kept; enough for rungs of a few hundred ms on either table.
    CAP = 4000

    def __init__(self) -> None:
        #: One list per flow: ("open", width), then (BeamOp.*, arg)...
        self.flows: list = []
        self.lanes: list = []  # (row_bytes, [(state, kind, body), ...])
        self.path: list = []  # (state, token id) of lane 0

    @property
    def full(self) -> bool:
        return len(self.lanes) >= self.CAP


class _TracedBeam:
    """A beam flow driven through the client's raw-frame tap, so the
    traced pass can time send / wait_masks / patch separately and keep
    the lanes exactly as they crossed the wire.  Mirrors the part of
    :class:`repro.server.client.BeamFlow` the driver uses."""

    def __init__(self, client, record: DecodeRecord) -> None:
        self.client = client
        self.record = record
        self.flow_id = client.allocate_flow_id()
        self.states: tuple = ()
        self.rows: list = []
        self._ops: list | None = None  # this flow's entry in the record
        self._reply: asyncio.Future | None = None
        client.set_raw_tap(self.flow_id, self._on_frame)

    async def _on_frame(self, frame) -> None:
        reply = self._reply
        if reply is None or reply.done():
            return
        if frame is None:
            reply.set_exception(ConnectionResetError("connection lost"))
        else:
            reply.set_result(frame)

    async def _request(self, frame_bytes: bytes, span):
        self._reply = asyncio.get_running_loop().create_future()
        with span.child("send"):
            await self.client.send_raw(frame_bytes)
        with span.child("wait_masks"):
            frame = await self._reply
        if frame.type == FrameType.ERROR:
            raise ServerFault(*protocol.decode_error(frame))
        return frame

    async def _masks(self, frame_bytes: bytes, span):
        frame = await self._request(frame_bytes, span)
        with span.child("patch"):
            _fid, row_bytes, lanes = protocol.decode_masks(frame)
            previous = self.rows
            self.rows = [
                body if kind == 0 else apply_xor_patch(previous[i], body)
                for i, (_state, kind, body) in enumerate(lanes)
            ]
            self.states = tuple(lane[0] for lane in lanes)
        if not self.record.full:
            self.record.lanes.append((row_bytes, lanes))
        return self.states, self.rows

    async def open(self, vocab_hash: str, width: int, span):
        if not self.record.full:
            self._ops = [("open", width)]
            self.record.flows.append(self._ops)
        return await self._masks(
            protocol.encode_open_beam(self.flow_id, width, vocab_hash), span
        )

    async def op(self, op: int, arg, span):
        if self._ops is not None:
            self._ops.append((op, arg))
        return await self._masks(
            protocol.encode_batch_advance(self.flow_id, op, arg), span
        )

    async def close(self, span) -> None:
        await self._request(protocol.encode_finish_flow(self.flow_id), span)
        self.client.clear_raw_tap(self.flow_id)


class _LibraryBeam:
    """The same three calls on the client library's ``BeamFlow`` — the
    path the end-to-end numbers are measured on."""

    def __init__(self, client) -> None:
        self.client = client
        self.flow = None

    async def open(self, vocab_hash: str, width: int, _span):
        self.flow = await self.client.open_beam_flow(vocab_hash, width)
        return self.flow.states, self.flow.rows

    async def op(self, op: int, arg, _span):
        flow = self.flow
        if op == BeamOp.ADVANCE:
            return await flow.advance(arg)
        if op == BeamOp.FORK:
            return await flow.fork(arg)
        return await flow.rollback(arg)

    async def close(self, _span) -> None:
        await self.flow.close()


async def run_decode(
    port: int,
    corpus,
    tally: Tally,
    *,
    warmup_s: float,
    recorder=OFF,
    record: DecodeRecord | None = None,
) -> None:
    """Beam flows of ``OPS_PER_FLOW`` ops (80 % advance, 10 % fork,
    10 % rollback from the flow's seeded RNG), then reopen.  Every
    reply's lane count, states and rows are checked against the
    corpus's ``MaskSession`` reference, outside the step clock.
    With a ``record`` the flows go through the raw-frame tap (the
    traced pass and its untraced reference); without, through the
    client library's ``BeamFlow`` (the end-to-end numbers)."""
    table = corpus.table
    vocab_hash = table.vocab_hash
    row_bytes = corpus.row_bytes
    advance_state = table.advance_state
    clock = time.perf_counter

    def check(index, what, got_states, rows, want_states) -> None:
        if tuple(got_states) != tuple(want_states):
            raise _Mismatch(
                f"flow {index} {what}: states {tuple(got_states)} != "
                f"{tuple(want_states)}"
            )
        if len(rows) != len(want_states):
            raise _Mismatch(f"flow {index} {what}: {len(rows)} rows")
        for lane, state in enumerate(want_states):
            if rows[lane] != corpus.row(state):
                raise _Mismatch(f"flow {index} {what}: lane {lane} row")

    async def one_flow(client, index: int) -> None:
        rng = corpus.flow_rng(index)
        beam = (
            _LibraryBeam(client) if record is None
            else _TracedBeam(client, record)
        )
        with recorder.root("flow", index) as flow_span:
            opened = clock()
            with flow_span.child("step") as span:
                got_states, rows = await beam.open(
                    vocab_hash, corpus_mod.BEAM_WIDTH, span
                )
            done = clock()
            states = [0] * corpus_mod.BEAM_WIDTH
            check(index, "open", got_states, rows, states)
            tally.step_done(
                done, done - opened, len(states) * row_bytes,
                len(states),
            )
            history: list = []
            for _ in range(corpus_mod.OPS_PER_FLOW):
                if clock() >= tally.end:
                    break
                roll = rng.random()
                if roll < 0.10 and len(states) < corpus_mod.BEAM_MAX_WIDTH:
                    op, arg = BeamOp.FORK, rng.randrange(len(states))
                    history.append(states)
                    states = states + [states[arg]]
                elif roll < 0.20 and history:
                    op = BeamOp.ROLLBACK
                    arg = rng.randrange(1, min(3, len(history)) + 1)
                    states = history[-arg]
                    del history[-arg:]
                else:
                    choices = [corpus.valid_tokens(s) for s in states]
                    if not all(len(c) for c in choices):
                        break  # dead end: no valid token; reopen
                    op = BeamOp.ADVANCE
                    arg = [
                        int(c[rng.randrange(len(c))]) for c in choices
                    ]
                    if record is not None and not record.full:
                        record.path.append((states[0], arg[0]))
                    history.append(states)
                    states = [
                        advance_state(s, t) for s, t in zip(states, arg)
                    ]
                sent = clock()
                with flow_span.child("step") as span:
                    got_states, rows = await beam.op(op, arg, span)
                done = clock()
                check(
                    index, BeamOp.NAMES[op], got_states, rows, states
                )
                tally.step_done(
                    done, done - sent, len(states) * row_bytes,
                    len(states),
                )
            with flow_span.child("close") as span:
                await beam.close(span)
            tally.flow_done(clock(), clock() - opened)

    await _closed_loop(port, one_flow, tally, warmup_s)


class _Mismatch(Exception):
    """A reply differs from the reference; counted as a failed op."""
