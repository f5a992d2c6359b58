"""The in-process rungs of the kernel-to-proxy ladder.

Each rung times calls into one layer's public functions, from outside,
on the workload's own corpus.  A rung is a handful of time slices; a
slice repeats the unit of work (one flow, one op list, one build)
until its time is spent and yields work done per second, scaled to
reference host speed (``hostclock``); the rung reports the median
slice.  The time comes out of the run's ``--seconds``, so the whole
ladder fits the run.
"""

from __future__ import annotations

import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from repro.apps.structgen import MaskSession, build_mask_table, load_mask_blob
from repro.apps.structgen.beam import BeamMaskSession
from repro.apps.xmlrpc import ContentBasedRouter
from repro.core.tagger import BehavioralTagger
from repro.grammar.examples import xmlrpc
from repro.server import protocol
from repro.server.protocol import BeamOp, FrameDecoder
from repro.service import RouterSpec, ScanService

import hostclock
import procs

#: Slices per rung of the traced ladder, and per in-process
#: end-to-end rate (which has a bound to stay inside, so it gets more
#: and shorter slices: each brings its own pair of calibrations).
SLICES = 6
END_TO_END_SLICES = 24


def native_tagger() -> BehavioralTagger:
    """A fresh native tagger per caller, and deliberately not one kept
    per process: what stays alive on the heap moves the in-process
    rates (sharing one read 15 % lower on scan-dense)."""
    tagger = BehavioralTagger(xmlrpc(), engine="native")
    if not getattr(tagger.compiled, "native_active", False):
        raise procs.LaunchError("in-process native kernel is not live")
    return tagger


def slice_rates(
    units, works, budget_s: float, slices: int,
    sensitivity=hostclock.IN_PROCESS,
) -> list:
    """Per function of ``works``, ``slices`` rates in work per
    reference-speed second.  The functions take turns slice by slice,
    so that all of them sample the same span of time; together they
    share ``budget_s``.  A slice cycles through ``units`` from the
    first, calling ``work(unit)`` (which returns the amount of work it
    did: bytes, messages, ops) until its time is spent, and is scaled
    by the host-speed probes read before and after it.  One untimed
    call of each function warms caches first."""
    for work in works:
        work(units[0])
    clock = time.perf_counter
    slice_s = budget_s / (slices * len(works))
    results = [[] for _ in works]
    before = hostclock.spin()
    for _ in range(slices):
        for work, rates in zip(works, results):
            done = 0
            index = 0
            start = clock()
            deadline = start + slice_s
            while True:
                done += work(units[index % len(units)])
                index += 1
                now = clock()
                if now >= deadline:
                    break
            after = hostclock.spin()
            scale = hostclock.scale((before, after), sensitivity)
            rates.append(done / ((now - start) * scale))
            before = after
    return results


def rate(units, work, budget_s: float, slices: int = SLICES) -> float:
    """The median of ``slices`` slices of one function."""
    return statistics.median(slice_rates(units, [work], budget_s, slices)[0])


def _per_byte(call):
    """``call(data)`` as a unit of work that did ``len(data)`` bytes."""

    def work(data):
        call(data)
        return len(data)

    return work


# ----------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------
class ScanRates:
    """The two in-process end-to-end rates: ``events()`` and ``tag()``
    over the flows, one call per flow.  ``sample`` may be called more
    than once, at different moments of a run; the rates are the medians
    over every slice taken."""

    def __init__(self, corpus) -> None:
        tagger = native_tagger()
        self._flows = [flow.data for flow in corpus.flows]
        self._events: list = []
        self._tag: list = []
        self._works = [_per_byte(tagger.events), _per_byte(tagger.tag)]
        # Over scan-bulk's payloads the C kernel skips dead regions and
        # the interpreter hardly runs: fitted (0.3, 0.2) for events()
        # and (0.5, 0.35) for tag(), against (0.75, 0.3-0.45) on the
        # dense recipe.
        self._sensitivity = (
            hostclock.WEAK if corpus.name == "scan-bulk"
            else hostclock.IN_PROCESS
        )

    def sample(self, budget_s: float) -> None:
        events, tag = slice_rates(
            self._flows, self._works, budget_s, END_TO_END_SLICES // 2,
            self._sensitivity,
        )
        self._events += events
        self._tag += tag

    def metrics(self) -> dict:
        return {
            "scan_mbps": statistics.median(self._events) / 1e6,
            "tag_mbps": statistics.median(self._tag) / 1e6,
        }


def scan_ladder(corpus, budget_s: float) -> dict:
    """Every scan-side layer metric that needs no server."""
    tagger = native_tagger()
    flows = list(corpus.flows)
    datas = [flow.data for flow in flows]
    total_bytes = corpus.total_bytes
    n_events = sum(len(tagger.events(data)) for data in datas)
    n_messages = sum(len(flow.expected) for flow in flows)
    chunked = [corpus.chunks(flow) for flow in flows]
    out = {}

    def stream(chunks):
        session = tagger.stream()
        fed = 0
        for chunk in chunks:
            session.feed(chunk)
            fed += len(chunk)
        session.finish()
        return fed

    events_bps = rate(datas, _per_byte(tagger.events), budget_s)
    tag_bps = rate(datas, _per_byte(tagger.tag), budget_s)
    out["core.nativescan.stream_mbps"] = rate(chunked, stream, budget_s) / 1e6
    out["core.nativescan.events_per_mb"] = n_events / (total_bytes / 1e6)
    out["core.tagger.tag_overhead_us_per_event"] = (
        (1 / tag_bps - 1 / events_bps) * (total_bytes / n_events) * 1e6
    )

    eighth = datas[: max(1, len(datas) // 8)]
    for engine, name in (
        ("vector", "core.vectorscan.events_mbps"),
        ("compiled", "core.compiled.events_mbps"),
    ):
        fallback = BehavioralTagger(xmlrpc(), engine=engine)
        out[name] = rate(eighth, _per_byte(fallback.events), budget_s) / 1e6

    router = ContentBasedRouter(tagger=tagger)

    def session(chunks):
        routing = router.stream()
        fed = 0
        for chunk in chunks:
            routing.feed(chunk)
            fed += len(chunk)
        routing.finish()
        return fed

    out["apps.xmlrpc.router.route_mbps"] = (
        rate(datas, _per_byte(router.route), budget_s) / 1e6
    )
    session_bps = rate(chunked, session, budget_s)
    out["apps.xmlrpc.router.session_mbps"] = session_bps / 1e6
    out["apps.xmlrpc.router.us_per_message"] = (
        total_bytes / session_bps / n_messages * 1e6
    )

    # wire codecs
    def encode_data(chunks):
        fed = 0
        for chunk in chunks:
            protocol.encode_data(1, chunk)
            fed += len(chunk)
        return fed

    encoded = [
        b"".join(protocol.encode_data(1, chunk) for chunk in chunks)
        for chunks in chunked
    ]

    def decode_frames(stream_bytes):
        decoder = FrameDecoder()
        for start in range(0, len(stream_bytes), 65536):
            decoder.feed(stream_bytes[start : start + 65536])
        return len(stream_bytes)

    out["server.protocol.encode_data_mbps"] = (
        rate(chunked, encode_data, budget_s) / 1e6
    )
    out["server.protocol.decoder_mbps"] = (
        rate(encoded, decode_frames, budget_s) / 1e6
    )

    expected = [list(flow.expected) for flow in flows]
    result_bytes = [
        protocol.encode_result(1, True, items) for items in expected
    ]
    result_frames = [
        (FrameDecoder().feed(blob)[0], len(items))
        for blob, items in zip(result_bytes, expected)
    ]

    def encode_result(items):
        protocol.encode_result(1, True, items)
        return len(items)

    def decode_result(frame_and_count):
        protocol.decode_result(frame_and_count[0])
        return frame_and_count[1]

    out["server.protocol.result_encode_us_per_msg"] = (
        1e6 / rate(expected, encode_result, budget_s)
    )
    out["server.protocol.result_decode_us_per_msg"] = (
        1e6 / rate(result_frames, decode_result, budget_s)
    )
    out["server.protocol.result_bytes_per_payload_byte"] = (
        sum(len(blob) for blob in result_bytes) / total_bytes
    )
    out.update(_pool_rung(corpus, budget_s))
    return out


def _pool_rung(corpus, budget_s: float) -> dict:
    """One-worker ``ScanService`` over the flows: the cost of the task
    queue and the process hop, with no socket."""
    flows = list(corpus.flows[: max(1, len(corpus.flows) // 8)])
    sequence = iter(range(1 << 30))

    with ScanService(RouterSpec(engine="native"), n_workers=1) as service:

        def run(flow):
            service.run_streams(
                {next(sequence): flow.data}, chunk_size=corpus.chunk
            )
            service.pop_results()
            return len(flow.data)

        mbps = rate(flows, run, budget_s) / 1e6
        wait = service.stats()["histograms"].get(
            "latency.submit_wait_s", {}
        )
    return {
        "service.service.pool1_mbps": mbps,
        "service.service.queue_wait_p50_ms": wait.get("p50_s", 0.0) * 1e3,
    }


# ----------------------------------------------------------------------
# decode
# ----------------------------------------------------------------------
def decode_ladder(corpus, record, budget_s: float) -> dict:
    """Every decode-side layer metric that needs no server, on the op
    schedule, lanes and lane path the traced pass recorded."""
    table = corpus.table
    out = {}

    # MASKS codec on the lanes exactly as they crossed the wire.
    lanes = record.lanes

    def encode_masks(entry):
        protocol.encode_masks(1, entry[0], entry[1])
        return 1

    frames = [
        FrameDecoder().feed(protocol.encode_masks(1, rb, body))[0]
        for rb, body in lanes
    ]

    def decode_masks(frame):
        protocol.decode_masks(frame)
        return 1

    out["server.protocol.masks_encode_us_per_op"] = (
        1e6 / rate(lanes, encode_masks, budget_s)
    )
    out["server.protocol.masks_decode_us_per_op"] = (
        1e6 / rate(frames, decode_masks, budget_s)
    )
    wire = sum(len(lane[2]) for _rb, body in lanes for lane in body)
    full = sum(rb * len(body) for rb, body in lanes)
    out["server.protocol.masks_wire_ratio"] = wire / full

    # table build / blob
    grammar = xmlrpc()
    vocab = table.vocab

    def build(_unit):
        build_mask_table(grammar, vocab)
        return 1

    blob = table.to_blob()

    def load(_unit):
        load_mask_blob(blob, grammar)
        return 1

    out["core.maskgen.table_build_s"] = 1 / rate([None], build, budget_s, 3)
    out["apps.structgen.masks.blob_bytes"] = float(len(blob))
    out["apps.structgen.masks.blob_load_s"] = 1 / rate(
        [None], load, budget_s, 3
    )
    described = table.describe()
    out["apps.structgen.masks.cd_share"] = (
        described["cd"] / described["vocab_size"]
    )

    # one MaskSession along lane 0's recorded path
    mirror = MaskSession(table)

    def step(state_and_token):
        mirror.state = state_and_token[0]
        mirror.advance(state_and_token[1])
        mirror.mask()
        return 1

    out["apps.structgen.masks.session_us_per_step"] = (
        1e6 / rate(record.path, step, budget_s)
    )

    # the beam engine replaying the recorded schedule, as the server
    # calls it: mutate, then gather every lane's row.
    def replay(ops):
        beam = None
        for op, arg in ops:
            if op == "open":
                beam = BeamMaskSession(table, arg)
            elif op == BeamOp.ADVANCE:
                beam.advance(arg)
            elif op == BeamOp.FORK:
                beam.fork(arg)
            else:
                beam.rollback(arg)
            beam.masks_packed()
        return len(ops)

    out["apps.structgen.beam.step_us"] = 1e6 / rate(record.flows, replay, budget_s)
    return out


# ----------------------------------------------------------------------
# set-up, in fresh children
# ----------------------------------------------------------------------
_TAGGER_COLD = """
import time
start = time.perf_counter()
from repro.core.tagger import BehavioralTagger
from repro.grammar.examples import xmlrpc
tagger = BehavioralTagger(xmlrpc(), engine="native")
tagger.events(b"<methodCall><methodName>buy</methodName><params>"
              b"</params></methodCall>\\n" * 58)
print(time.perf_counter() - start)
"""

_REGISTRY_LOAD = """
import sys, time
start = time.perf_counter()
from repro.service.registry import Registry
Registry(sys.argv[1]).load("xmlrpc@1")
print(time.perf_counter() - start)
"""


def _child(code: str, *args: str) -> tuple[float, float, str]:
    """(host-speed scale, wall seconds, stdout) of a fresh
    ``python -c`` child."""
    before = hostclock.spin()
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds = time.perf_counter() - start
    scale = hostclock.scale((before, hostclock.spin()), hostclock.WEAK)
    return scale, seconds, done.stdout


def setup_ladder() -> dict:
    """What a cold process pays before it serves: interpreter + import
    (the child's wall time), then — timed inside the child, so without
    interpreter start — native tagger construction + first 4 KiB, and
    a registry artifact load."""
    from repro.service.registry import Registry

    procs.CACHE_DIR.mkdir(parents=True, exist_ok=True)
    store = tempfile.mkdtemp(prefix="registry-", dir=procs.CACHE_DIR)
    try:
        Registry(store).publish("xmlrpc", xmlrpc())
        imports, colds, loads = [], [], []
        for _ in range(3):
            scale, wall, _stdout = _child("import repro")
            imports.append(wall * scale)
            scale, _wall, stdout = _child(_TAGGER_COLD)
            colds.append(float(stdout) * scale)
            scale, _wall, stdout = _child(_REGISTRY_LOAD, store)
            loads.append(float(stdout) * scale)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    return {
        "setup.import_s": statistics.median(imports),
        "setup.tagger_cold_s": statistics.median(colds),
        "service.registry.load_s": statistics.median(loads),
    }
