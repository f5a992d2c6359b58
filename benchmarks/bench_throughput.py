"""Processing-rate comparison: hardware model vs software parsers.

Run with ``pytest benchmarks/bench_throughput.py --benchmark-only``.

The paper's headline numbers (1.57 Gbps VirtexE / 4.26 Gbps Virtex 4)
are *hardware model* outputs: one byte per cycle at the achieved clock
rate. This bench reports those modelled rates next to the measured
wall-clock rates of the software implementations — the compiled
table-driven engine, the interpreted behavioral loop, the LL(1)
parser, the recursive-descent parser, and the cycle-accurate
gate-level simulation — making explicit which numbers are simulated
and which are host-machine measurements.

Measured software rates are also written to ``BENCH_throughput.json``
at the repo root (engine -> Gbps, with derived ``* MB/s`` twins) so
runs are diffable across revisions; ``test_compiled_speedup`` gates
the compiled engine at >= 5x the interpreted one on the XML-RPC
workload, ``test_vector_speedup`` gates the vector wide-datapath
engine at >= 2x the compiled one, ``test_native_speedup`` gates the
native C kernel at >= 10x the compiled one (skipping where no kernel
can be built), ``test_native_bulk_skip`` records the kernel's rate on
Base64 bulk payloads and gates its skip share at >= 0.95,
``test_cold_tagger_setup`` gates cold native-tagger construction at
<= 1.5x a bare ``import repro`` in fresh interpreters,
``test_structgen_masks`` gates precomputed constrained-decoding
token masks at >= 10x the naive per-token rescan,
``test_structgen_beam`` gates the batched beam-of-32 engine at
>= 5x thirty-two independent sessions (and the delta encoding at
<= 0.5x full-row wire bytes), ``test_masks_apply`` gates the client's
native MASKS apply at >= 5x the portable decode + XOR patch, and
``test_service_scaling`` records the sharded multi-process service's
1-worker vs 4-worker rates (gating >= 2x only on hosts with enough
CPUs to make that honest).
"""

import base64
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

import repro
from repro.apps.xmlrpc import WorkloadGenerator
from repro.apps.xmlrpc.messages import Base64Value, MethodCall
from repro.apps.xmlrpc.services import BANK_SHOPPING_TABLE
from repro.core.compiled import CompiledTagger
from repro.core.generator import TaggerGenerator
from repro.core.tagger import BehavioralTagger, GateLevelTagger
from repro.fpga.device import get_device
from repro.fpga.report import implement
from repro.grammar.examples import xmlrpc
from repro.software.lexer import Lexer
from repro.software.ll1 import LL1Parser
from repro.software.recursive_descent import RecursiveDescentParser


@pytest.fixture(scope="module")
def grammar():
    return xmlrpc()


@pytest.fixture(scope="module")
def stream():
    generator = WorkloadGenerator(seed=41)
    data, _truth = generator.stream(120)
    return data


def _gbps(n_bytes: int, seconds: float) -> float:
    return n_bytes * 8 / seconds / 1e9


def _interleaved_best(*runs, reps: int, warmup: int = 1) -> list[float]:
    """Best-of-``reps`` wall-clock seconds for each of ``runs``, timed
    in turn rep by rep: every ratio gate times its sides this way, so a
    burst of neighbour load lands on all of them instead of on one
    side's block of reps.

    ``warmup`` untimed rounds first, so lazily-materialized tables,
    memo warm-up and allocator steady state never pollute the timings.
    """
    for _ in range(warmup):
        for run in runs:
            run()
    best = [float("inf")] * len(runs)
    for _ in range(reps):
        for k, run in enumerate(runs):
            start = time.perf_counter()
            run()
            best[k] = min(best[k], time.perf_counter() - start)
    return best


def _best_rate(run, data: bytes, reps: int, warmup: int = 1) -> float:
    """Best-of-``reps`` rate of ``run(data)`` in Gbps."""
    seconds = _interleaved_best(lambda: run(data), reps=reps, warmup=warmup)
    return _gbps(len(data), seconds[0])


def _valid_tokens(row: bytes, n_tokens: int) -> list[int]:
    return [i for i in range(n_tokens) if row[i >> 3] >> (i & 7) & 1]


def test_rate_report(report_sink, bench_record, grammar, stream, benchmark):
    """One table with every engine's processing rate on one stream."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []

    circuit = TaggerGenerator().generate(grammar)
    for device_key in ("virtex4-lx200", "virtexe-2000"):
        report = implement(circuit, get_device(device_key))
        rows.append(
            (f"hardware model ({report.device.name})",
             report.bandwidth_gbps, "modelled: 1 byte/cycle x clock")
        )

    compiled = BehavioralTagger(grammar)
    compiled.tag(stream[:4096])  # materialize the lazy tables
    engines = [
        ("compiled tagger", compiled.tag),
        ("vector tagger", BehavioralTagger(grammar, engine="vector").tag),
        ("native tagger (tag)",
         BehavioralTagger(grammar, engine="native").tag),
        ("interpreted tagger",
         BehavioralTagger(grammar, engine="interpreted").tag),
        ("LL(1) parser", lambda d: LL1Parser(grammar).parse_stream(d)),
        ("maximal-munch lexer", Lexer(grammar.lexspec).tokenize),
    ]
    for name, run in engines:
        gbps = _best_rate(run, stream, reps=3)
        rows.append((name, gbps, "host wall-clock"))
        bench_record(name, gbps)

    small = stream[:600]
    gate = GateLevelTagger(circuit)
    start = time.perf_counter()
    gate.events(small)
    elapsed = time.perf_counter() - start
    rows.append(
        ("gate-level simulation", _gbps(len(small), elapsed),
         "host wall-clock (cycle-accurate)")
    )

    width = max(len(r[0]) for r in rows)
    lines = [f"{name:<{width}}  {gbps:>12.6f} Gbps  ({note})"
             for name, gbps, note in rows]
    report_sink("throughput", "\n".join(lines))

    modelled = dict((r[0], r[1]) for r in rows)
    assert modelled["hardware model (Virtex4 LX200)"] == pytest.approx(4.26, rel=0.02)
    assert modelled["hardware model (VirtexE 2000)"] == pytest.approx(1.57, rel=0.02)


def test_compiled_speedup(bench_record, grammar, stream):
    """ISSUE acceptance gate: compiled engine >= 5x the interpreted
    seed loop on the XML-RPC workload, bit-exact on the way."""
    interpreted = BehavioralTagger(grammar, engine="interpreted")
    compiled = BehavioralTagger(grammar)
    assert compiled.tag(stream) == interpreted.tag(stream)

    interpreted_s, compiled_s = _interleaved_best(
        lambda: interpreted.tag(stream), lambda: compiled.tag(stream), reps=10
    )
    interpreted_gbps = _gbps(len(stream), interpreted_s)
    compiled_gbps = _gbps(len(stream), compiled_s)
    bench_record("interpreted tagger", interpreted_gbps)
    bench_record("compiled tagger", compiled_gbps)
    bench_record("compiled/interpreted speedup",
                 compiled_gbps / interpreted_gbps, unit=None)
    assert compiled_gbps / interpreted_gbps >= 5.0


def test_vector_speedup(bench_record, grammar, stream):
    """ISSUE acceptance gate: the vector wide-datapath engine >= 2x
    the compiled engine on the XML-RPC workload, bit-exact on the way.

    Only gates where the dense tables are live (NumPy present); the
    no-NumPy CI job proves the fallback instead.
    """
    vector = BehavioralTagger(grammar, engine="vector")
    if not vector.compiled.vector_active:
        pytest.skip("vector tables unavailable (no NumPy)")
    compiled = BehavioralTagger(grammar)
    assert vector.tag(stream) == compiled.tag(stream)

    # Gate on the scan path (raw detect events): lexeme materialization
    # in tag() is identical engine-independent work that would dilute
    # the engine ratio on this event-dense stream.
    compiled_s, vector_s = _interleaved_best(
        lambda: compiled.compiled.events(stream),
        lambda: vector.compiled.events(stream),
        reps=10,
    )
    compiled_gbps = _gbps(len(stream), compiled_s)
    vector_gbps = _gbps(len(stream), vector_s)
    bench_record("compiled tagger scan", compiled_gbps)
    bench_record("vector tagger", vector_gbps)
    bench_record("vector/compiled speedup",
                 vector_gbps / compiled_gbps, unit=None)
    assert vector_gbps / compiled_gbps >= 2.0


def test_native_speedup(bench_record, grammar, stream):
    """ISSUE acceptance gate: the native C kernel >= 10x the compiled
    engine on the XML-RPC workload, bit-exact on the way.

    Only gates where the kernel is live (prebuilt extension or JIT
    build); the no-compiler CI job proves the fallback ladder instead.
    """
    native = BehavioralTagger(grammar, engine="native")
    if not native.compiled.native_active:
        pytest.skip("native kernel unavailable (no compiler or disabled)")
    compiled = BehavioralTagger(grammar)
    assert native.tag(stream) == compiled.tag(stream)
    assert native.compiled.events(stream) == compiled.compiled.events(stream)

    # Same scan-path gate as test_vector_speedup: raw detect events,
    # so engine-independent lexeme materialization doesn't dilute the
    # ratio. events() rides the kernel's events-only fast path (no
    # (event, start) pair tuples cross the C boundary). tag() is timed
    # in the same rounds: it is the other side of the second ratio.
    compiled_s, native_s, tag_s = _interleaved_best(
        lambda: compiled.compiled.events(stream),
        lambda: native.compiled.events(stream),
        lambda: native.compiled.tag(stream),
        reps=10,
    )
    compiled_gbps = _gbps(len(stream), compiled_s)
    native_gbps = _gbps(len(stream), native_s)
    bench_record("compiled tagger scan", compiled_gbps)
    bench_record("native tagger", native_gbps)
    bench_record("native/compiled speedup",
                 native_gbps / compiled_gbps, unit=None)
    assert native_gbps / compiled_gbps >= 10.0

    # tag() is the same scan with the kernel's token drain: a finished
    # TaggedToken (lexeme copied out) may cost at most 2.5x a bare
    # event on this stream of ~1 token per 8 bytes.
    tag_gbps = _gbps(len(stream), tag_s)
    bench_record("native tag/events ratio", tag_gbps / native_gbps, unit=None)
    assert tag_gbps / native_gbps >= 0.4


def test_native_bulk_skip(bench_record, grammar):
    """Per-byte work: calls whose two Base64 params (2-8 KiB each, 768
    random bytes per KiB of the BASE64 alphabet, no padding) are read
    while their token is armed, every payload byte a bare self-loop the
    kernel fast-forwards over. Records native ``events()`` MB/s and the
    skip share; gates only on the share, which the tables and the input
    fix, never on a wall-clock ratio."""
    native = BehavioralTagger(grammar, engine="native").compiled
    if not native.native_active:
        pytest.skip("native kernel unavailable (no compiler or disabled)")
    rng = random.Random(2006)
    data = b"\n".join(
        MethodCall(
            rng.choice(BANK_SHOPPING_TABLE.services),
            tuple(
                Base64Value(base64.b64encode(rng.randbytes(768 * kib)).decode())
                for kib in rng.sample(range(2, 9), 2)
            ),
        ).encode()
        for _ in range(16)
    )
    assert native.events(data) == CompiledTagger(grammar).events(data)
    scanned, skipped = native.bytes_scanned, native.bytes_skipped
    (native_s,) = _interleaved_best(lambda: native.events(data), reps=10)
    share = (native.bytes_skipped - skipped) / (native.bytes_scanned - scanned)
    bench_record("native bulk events", _gbps(len(data), native_s))
    bench_record("native bulk skip share", share, unit=None)
    assert share >= 0.95


#: Everything the cold child imports before its timer starts: the
#: packages are lazy, so the engine module is named, not implied.
_COLD_IMPORTS = (
    "import repro.core.nativescan, repro.core.tagger, repro.grammar.examples"
)
_COLD_NATIVE = _COLD_IMPORTS + """
import time
from repro.core.tagger import BehavioralTagger
from repro.grammar.examples import xmlrpc
start = time.perf_counter()
tagger = BehavioralTagger(xmlrpc(), engine="native")
print(time.perf_counter() - start, tagger.compiled.native_active)
"""


def _child(code: str) -> tuple[float, str]:
    """(wall seconds, stdout) of ``python -c code`` in a fresh
    interpreter that imports this checkout's ``repro``."""
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return time.perf_counter() - start, done.stdout


def test_cold_tagger_setup(bench_record):
    """Cold-start gate: in a fresh interpreter, constructing the native
    XML-RPC tagger (scan IR closure and kernel lowering included) takes
    at most 1.5x the wall time of a child that only makes the same
    imports, ``_COLD_IMPORTS`` (``import repro`` alone loads no
    submodule, so it no longer measures the library).  Both are timed
    on the same host, so the ratio carries no host speed; best of five
    children each."""
    _wall, stdout = _child(_COLD_NATIVE)  # untimed: builds the kernel
    if stdout.split()[1] != "True":
        pytest.skip("native kernel unavailable (no compiler or disabled)")
    import_s = min(_child(_COLD_IMPORTS)[0] for _ in range(5))
    cold_s = min(float(_child(_COLD_NATIVE)[1].split()[0]) for _ in range(5))
    bench_record("cold native tagger / its imports", cold_s / import_s,
                 unit=None)
    assert cold_s <= 1.5 * import_s


def test_structgen_masks(bench_record, grammar):
    """ISSUE acceptance gate: precomputed per-state token masks serve
    >= 10x faster than naively rescanning every vocabulary token per
    decode step, byte-identical on the way.

    Records the precomputed-hit and context-dependent-fallback split
    alongside the rates, so the trajectory file shows *why* a mask was
    cheap (how much of the vocabulary the trie precomputation covered).
    """
    from repro.apps.structgen import (
        MaskSession,
        build_mask_table,
        synthetic_vocab,
    )

    vocab = synthetic_vocab(size=1024)
    table = build_mask_table(grammar, vocab)
    # A seeded decode trajectory: from state 0, repeatedly pick a
    # uniformly random valid token and advance (reset on dead ends).
    rng = random.Random(2006)
    session = MaskSession(table)
    states = []
    for _ in range(200):
        states.append(session.state)
        valid = _valid_tokens(session.mask(), len(vocab))
        if valid:
            session.advance(rng.choice(valid))
        else:
            session.reset()
    for state in states[:60]:
        assert table.mask_row(state) == table.naive_row(state)

    def precomputed():
        for state in states:
            session.state = state
            session.mask()

    # The naive rescan is orders of magnitude slower, so it runs over
    # a prefix of the same trajectory; both rates are per mask.
    naive_states = states[:20]

    def naive():
        for state in naive_states:
            table.naive_row(state)

    precomputed_s, naive_s = _interleaved_best(precomputed, naive, reps=3)
    masks_per_s = len(states) / precomputed_s
    naive_per_s = len(naive_states) / naive_s
    bench_record("structgen masks/sec", masks_per_s, unit=None)
    bench_record("structgen naive masks/sec", naive_per_s, unit=None)
    bench_record(
        "structgen speedup", masks_per_s / naive_per_s, unit=None
    )
    bench_record(
        "structgen ci fraction", table.ci_count / len(vocab), unit=None
    )
    assert masks_per_s / naive_per_s >= 10.0


def test_structgen_beam(bench_record, grammar):
    """ISSUE acceptance gate: the batched beam engine serves a
    beam-of-32's masks >= 5x faster than 32 independent
    :class:`MaskSession` replays of the identical schedule
    (byte-identical results are the differential suite's job; this
    test gates the rate and records the wire-delta saving).
    """
    from repro.apps.structgen import (
        BeamMaskSession,
        MaskSession,
        build_mask_table,
        synthetic_vocab,
    )
    from repro.apps.structgen.beam import xor_patch

    width = 32
    vocab = synthetic_vocab(size=1024)
    table = build_mask_table(grammar, vocab)
    lanes = [MaskSession(table) for _ in range(width)]

    # A seeded beam trajectory both sides replay: per step one valid
    # token id per lane, or None — a full-beam reset — when any lane
    # dead-ends.
    rng = random.Random(2006)
    ops: list = []
    for _ in range(120):
        choices = [_valid_tokens(lane.mask(), len(vocab)) for lane in lanes]
        if all(choices):
            ids = [rng.choice(valid) for valid in choices]
            for lane, token in zip(lanes, ids):
                lane.advance(token)
        else:
            ids = None
            for lane in lanes:
                lane.reset()
        ops.append(ids)

    beam = BeamMaskSession(table, width)

    def run_beam():
        beam.reset(width)
        for ids in ops:
            if ids is None:
                beam.reset(width)
            else:
                beam.advance(ids)
            beam.masks_packed()

    def run_sessions():
        for lane in lanes:
            lane.reset()
        for ids in ops:
            if ids is None:
                for lane in lanes:
                    lane.reset()
            else:
                for lane, token in zip(lanes, ids):
                    lane.advance(token)
            for lane in lanes:
                lane.mask()

    beam_s, sessions_s = _interleaved_best(run_beam, run_sessions, reps=3)

    # Wire accounting: per step, per lane, a delta payload (3 bytes
    # per changed row byte + 3 bytes of frame overhead) vs the full
    # row — the MASKS frame picks whichever is smaller.
    beam.reset(width)
    prev = list(beam.masks())
    delta_bytes = full_bytes = 0
    for ids in ops:
        if ids is None:
            beam.reset(width)
        else:
            beam.advance(ids)
        rows = beam.masks()
        for before, row in zip(prev, rows):
            full_bytes += table.row_bytes
            delta_bytes += min(
                len(xor_patch(before, row)) + 3, table.row_bytes + 1
            )
        prev = rows

    masks_total = width * len(ops)
    bench_record(
        "structgen beam masks/sec", masks_total / beam_s, unit=None
    )
    bench_record(
        "structgen beam sessions masks/sec",
        masks_total / sessions_s,
        unit=None,
    )
    bench_record(
        "structgen beam speedup", sessions_s / beam_s, unit=None
    )
    bench_record(
        "structgen beam wire delta ratio",
        delta_bytes / full_bytes,
        unit=None,
    )
    bench_record(
        "structgen beam host cpus",
        float(os.cpu_count() or 1),
        unit=None,
    )
    assert sessions_s / beam_s >= 5.0
    # The incremental deltas must actually pay on the wire: shipping
    # patched rows beats shipping full rows by a wide margin.
    assert delta_bytes / full_bytes <= 0.5


def test_masks_apply(bench_record, grammar):
    """The client's MASKS apply: one native call rebuilding every lane
    of a reply >= 5x ``decode_masks`` + per-lane ``apply_xor_patch``
    (the portable twin) on a seeded 8-lane stream of 2 KiB-row frames.
    A ratio of two timings on one host, where an absolute rate would
    be flaky; both rates are recorded, and both paths must rebuild the
    same rows."""
    from repro.apps.structgen import (
        BeamMaskSession,
        build_mask_table,
        synthetic_vocab,
    )
    from repro.apps.structgen.beam import encode_lane_records
    from repro.core import _native_build
    from repro.server import protocol

    if _native_build.load_kernel() is None:
        pytest.skip("native module unavailable (no compiler)")
    width = 8
    vocab = synthetic_vocab(size=16384)
    table = build_mask_table(grammar, vocab)
    assert table.row_bytes == 2048

    rng = random.Random(2006)
    beam = BeamMaskSession(table, width)
    sent = b""
    payloads = []
    for _ in range(200):
        choices = [_valid_tokens(row, len(vocab)) for row in beam.masks()]
        if all(choices):
            beam.advance([rng.choice(valid) for valid in choices])
        else:
            beam.reset(width)
        packed = beam.masks_packed()
        records, _deltas = encode_lane_records(
            beam.states, packed, sent, table.row_bytes
        )
        payloads.append(
            protocol.encode_masks_records(1, width, table.row_bytes, records)
        )
        sent = packed
    frames = protocol.FrameDecoder(1 << 20).feed(b"".join(payloads))

    def replay(apply):
        rows: list = []
        for frame in frames:
            rows = apply(frame, rows)[1]
        return rows

    assert replay(protocol.apply_masks) == replay(
        protocol._apply_masks_portable
    ) == beam.masks()
    kernel_s, portable_s = _interleaved_best(
        lambda: replay(protocol.apply_masks),
        lambda: replay(protocol._apply_masks_portable),
        reps=5,
    )
    bench_record(
        "masks apply kernel frames/sec", len(frames) / kernel_s, unit=None
    )
    bench_record(
        "masks apply portable frames/sec", len(frames) / portable_s, unit=None
    )
    bench_record("masks apply speedup", portable_s / kernel_s, unit=None)
    assert portable_s / kernel_s >= 5.0


def test_service_scaling(bench_record, grammar, stream):
    """ISSUE acceptance gate: the sharded service scales — 4 workers
    >= 2x one worker on a multi-flow XML-RPC workload, byte-for-byte
    equal to the single-process router.

    The rate assertion needs real parallelism, so it only gates on
    hosts with >= 4 CPUs; the measured rates and the equality check are
    recorded unconditionally.
    """
    from repro.apps.xmlrpc import ContentBasedRouter
    from repro.service import RouterSpec, ScanService

    generator = WorkloadGenerator(seed=43)
    streams = {}
    for index in range(8):
        data, _truth = generator.stream(40)
        streams[f"flow-{index}"] = data
    total_bytes = sum(len(s) for s in streams.values())

    router = ContentBasedRouter()
    expected = {flow: router.route(data) for flow, data in streams.items()}

    def service_rate(n_workers: int) -> float:
        best = float("inf")
        for _ in range(2):
            with ScanService(RouterSpec(), n_workers=n_workers) as service:
                start = time.perf_counter()
                got = service.run_streams(streams, chunk_size=4096)
                best = min(best, time.perf_counter() - start)
            assert got == expected
        return _gbps(total_bytes, best)

    single = service_rate(1)
    sharded = service_rate(4)
    cpus = os.cpu_count() or 1
    bench_record("service 1-worker", single)
    bench_record("service host cpus", float(cpus), unit=None)
    if cpus >= 4:
        bench_record("service 4-worker", sharded)
        bench_record("service speedup (4w/1w)", sharded / single, unit=None)
        assert sharded / single >= 2.0
    else:
        # 4 workers on < 4 CPUs cannot speed anything up; a rate or
        # ratio from such a host would read as a regression in the
        # trajectory file. Record null — for the MB/s twin too — so
        # both entries are visibly "not measured" (the host CPU count
        # above says why). The equality check on `sharded` still ran.
        bench_record("service 4-worker", None)
        bench_record("service speedup (4w/1w)", None, unit=None)


def test_compiled_tagger_rate(benchmark, grammar, stream):
    tagger = BehavioralTagger(grammar)
    tagger.tag(stream[:4096])  # materialize the lazy tables
    tokens = benchmark(lambda: tagger.tag(stream))
    assert tokens


def test_compiled_streaming_rate(benchmark, grammar, stream):
    """Chunked feed (1500-byte MTU slices) through one session."""
    tagger = BehavioralTagger(grammar)
    tagger.tag(stream[:4096])
    chunks = [stream[i:i + 1500] for i in range(0, len(stream), 1500)]

    def run():
        session = tagger.compiled.stream()
        events = []
        for chunk in chunks:
            events += session.feed(chunk)
        return events + session.finish()

    events = benchmark(run)
    assert events


def test_behavioral_tagger_rate(benchmark, grammar, stream):
    tagger = BehavioralTagger(grammar, engine="interpreted")
    tokens = benchmark(lambda: tagger.tag(stream))
    assert tokens


def test_ll1_parser_rate(benchmark, grammar, stream):
    parser = LL1Parser(grammar)
    results = benchmark(lambda: parser.parse_stream(stream))
    assert results


def test_recursive_descent_rate(benchmark, grammar):
    parser = RecursiveDescentParser(grammar)
    generator = WorkloadGenerator(seed=42)
    call, _p, _d = generator.message()
    data = call.encode()
    tokens = benchmark(lambda: parser.parse(data))
    assert tokens


def test_gate_level_simulation_rate(benchmark, grammar):
    circuit = TaggerGenerator().generate(grammar)
    gate = GateLevelTagger(circuit)
    message = (
        b"<methodCall><methodName>buy</methodName>"
        b"<params><param><i4>1</i4></param></params></methodCall>"
    )
    events = benchmark(lambda: gate.events(message))
    assert events
