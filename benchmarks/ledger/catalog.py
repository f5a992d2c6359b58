"""Names, units and predictions of the performance ledger.

Everything a later issue refers to by name lives here: the five
workloads, the end-to-end metrics with the bound by which each may
worsen, and the per-layer metrics with the end-to-end metric and
workload each one is predicted to move (written down before the first
measurement; README.md has the reasoning).  ``BENCHMARK.json`` at the
repo root is :func:`manifest` serialised; the tests keep the two equal.
"""

from __future__ import annotations

SCAN_WORKLOADS = ("scan-dense", "scan-bulk", "scan-shortflows")
DECODE_WORKLOADS = ("decode-ci", "decode-cd")

#: name -> one-line reason the workload exists.
WORKLOADS = {
    "scan-dense": (
        "~1 event per 8 bytes: per-event and per-message Python work "
        "(event drain, RouterSession, pickled RESULT) dominates, the "
        "kernel does almost nothing"
    ),
    "scan-bulk": (
        "same bytes per flow, ~75x fewer events: per-byte work (kernel "
        "stepping, dead-region skip, copies, DATA framing, payload "
        "echoed in RESULT) dominates; per-event changes must not move it"
    ),
    "scan-shortflows": (
        "~415 B flows through the cluster proxy: OPEN/DATA/FINISH/RESULT, "
        "ring lookup, journal and relay per flow dominate; the only "
        "workload where server.cluster does work"
    ),
    "decode-ci": (
        "beam flows on a 4096-token vocabulary with 0 context-dependent "
        "tokens: mask tables are precomputed, so the MASKS wire and "
        "delta patching are the whole step time"
    ),
    "decode-cd": (
        "identical driver on a 16384-token vocabulary with 3687 "
        "context-dependent tokens: the live CD memo check dominates "
        "and the wire vanishes"
    ),
}

#: Seconds one driver run measures (``--seconds``); the contract's cap
#: of 3420 s over 4 + 22 x 5 runs leaves ~30 s per run including the
#: four launches behind ``setup_s``.
RUN_SECONDS = 16

#: End-to-end metrics (tracing off).  ``scan`` / ``decode`` say what
#: the number means on each family of workloads: the driver requires
#: every end-to-end metric from every workload, so each name carries
#: its primary definition on one family and the closest analogue on
#: the other.  Every duration is scaled to reference host speed
#: (``hostclock``).  Throughputs are the median over the run's 0.25 s
#: windows, latencies the median over all of the run's samples.  The
#: timing bounds are the contract's maximum because this host's noise
#: leaves no room for less (README.md, "Noise").
END_TO_END = [
    {
        "name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
        "scan": "spawn of the SUT process(es) -> first verified reply on "
                "a fresh connection; median of 3 launches after one "
                "discarded launch",
        "decode": "same",
    },
    {
        "name": "served_mbps", "unit": "MB/s", "better": "higher",
        "bound": 0.25,
        "scan": "payload bytes of flows completed and verified in a "
                "window / window time (10^6 B)",
        "decode": "full mask-row bytes delivered (lanes x ops x "
                  "row_bytes) / window time",
    },
    {
        "name": "flow_p50_ms", "unit": "ms", "better": "lower",
        "bound": 0.25,
        "scan": "first DATA written -> final RESULT decoded",
        "decode": "OPEN_BEAM sent -> close acknowledged (a flow of 48 "
                  "ops)",
    },
    {
        "name": "scan_mbps", "unit": "MB/s", "better": "higher",
        "bound": 0.25,
        "scan": "in-process BehavioralTagger(xmlrpc(), engine='native')"
                ".events() over the workload's flows, one call per flow",
        "decode": "same call over the scan-dense reference flows of the "
                  "seed (decode sends no bytes to scan): host reference",
    },
    {
        "name": "tag_mbps", "unit": "MB/s", "better": "higher",
        "bound": 0.25,
        "scan": "same with .tag() (start recovery + TaggedToken "
                "materialisation)",
        "decode": "same, on the reference flows",
    },
    {
        "name": "masks_per_s", "unit": "1/s", "better": "higher",
        "bound": 0.25,
        "scan": "routed messages delivered and verified / window time "
                "(the scan analogue of a mask row: one unit of reply)",
        "decode": "mask rows delivered to the client (lanes x ops) / "
                  "window time",
    },
    {
        "name": "step_p50_ms", "unit": "ms", "better": "lower",
        "bound": 0.25,
        "scan": "FINISH_FLOW sent -> final RESULT decoded (the one "
                "blocking round trip of a scan flow)",
        "decode": "BATCH_ADVANCE sent -> every lane's row patched; "
                  "choosing the next tokens is outside the clock",
    },
    {
        "name": "peak_rss_mb", "unit": "MB", "better": "lower",
        "bound": 0.10,
        "scan": "sum of VmHWM of the SUT subprocesses at the end of "
                "the run",
        "decode": "same",
    },
]


def _layer(name, unit, better, how, moves, note=""):
    return {
        "name": name, "unit": unit, "better": better, "how": how,
        "moves": moves, "note": note,
    }


_ALL = SCAN_WORKLOADS + DECODE_WORKLOADS


def _on(metrics, workloads):
    return [(m, w) for m in metrics for w in workloads]


#: Per-layer metrics (traced pass).  The prefix is the module under
#: ``src/repro/`` the number belongs to.  ``moves`` lists the
#: (end-to-end metric, workload) pairs the layer is predicted to move;
#: where it is empty ``note`` says why the number is kept anyway.
PER_LAYER = [
    _layer("core.nativescan.stream_mbps", "MB/s", "higher",
           "tagger.stream() session fed 4096 B chunks",
           _on(["served_mbps"], ["scan-bulk"]),
           "about none on scan-dense"),
    _layer("core.nativescan.events_per_mb", "count", "lower",
           "len(events) / MB of the corpus (exact)", [],
           "explains the dense/bulk split; must not change"),
    _layer("core.vectorscan.events_mbps", "MB/s", "higher",
           "engine='vector' events() on a 1/8 slice", [],
           "moves nothing while native is live: pruning evidence"),
    _layer("core.compiled.events_mbps", "MB/s", "higher",
           "engine='compiled' events() on a 1/8 slice", [],
           "moves nothing while native is live: pruning evidence"),
    _layer("core.tagger.tag_overhead_us_per_event", "us", "lower",
           "(tag() time - events() time) / events",
           _on(["tag_mbps"], ["scan-dense"]), "about 0 on scan-bulk"),
    _layer("apps.xmlrpc.router.route_mbps", "MB/s", "higher",
           "ContentBasedRouter(tagger=native).route per flow",
           _on(["served_mbps", "flow_p50_ms"], ["scan-dense"])),
    _layer("apps.xmlrpc.router.session_mbps", "MB/s", "higher",
           "RouterSession.feed in workload-sized chunks + finish",
           _on(["served_mbps", "flow_p50_ms"], ["scan-dense"])),
    _layer("apps.xmlrpc.router.us_per_message", "us", "lower",
           "RouterSession time / messages routed",
           _on(["served_mbps", "flow_p50_ms"], ["scan-dense"])),
    _layer("service.service.pool1_mbps", "MB/s", "higher",
           "ScanService(RouterSpec(engine='native'), n_workers=1)"
           ".run_streams", [],
           "no pooled workload fits 2 cores; baseline for the ROADMAP "
           "ledger"),
    _layer("service.service.queue_wait_p50_ms", "ms", "lower",
           "stats() latency.submit_wait_s p50 of that pool", [],
           "as pool1_mbps"),
    _layer("server.protocol.encode_data_mbps", "MB/s", "higher",
           "encode_data over the workload's chunks",
           _on(["served_mbps"], ["scan-bulk"])),
    _layer("server.protocol.decoder_mbps", "MB/s", "higher",
           "FrameDecoder.feed of the encoded stream in 64 KiB reads",
           _on(["served_mbps"], ["scan-bulk"])),
    _layer("server.protocol.result_encode_us_per_msg", "us", "lower",
           "encode_result over the expected RoutedMessage lists",
           _on(["served_mbps", "flow_p50_ms"], ["scan-dense"])),
    _layer("server.protocol.result_decode_us_per_msg", "us", "lower",
           "decode_result of those frames",
           _on(["served_mbps", "flow_p50_ms"], ["scan-dense"])),
    _layer("server.protocol.result_bytes_per_payload_byte", "ratio",
           "lower", "RESULT frame bytes / flow payload bytes",
           _on(["served_mbps"], ["scan-bulk"])),
    _layer("server.protocol.masks_encode_us_per_op", "us", "lower",
           "encode_masks on the lanes recorded in the traced pass",
           _on(["step_p50_ms", "masks_per_s"], ["decode-ci"])),
    _layer("server.protocol.masks_decode_us_per_op", "us", "lower",
           "decode_masks of those frames",
           _on(["step_p50_ms", "masks_per_s"], ["decode-ci"])),
    _layer("server.protocol.masks_wire_ratio", "ratio", "lower",
           "MASKS lane payload bytes / full-row bytes",
           _on(["step_p50_ms", "masks_per_s"], ["decode-ci"])),
    _layer("server.server.cpu_s_per_mb", "s", "lower",
           "server process utime+stime / MB served in the traced window",
           _on(["served_mbps"], SCAN_WORKLOADS)),
    _layer("server.server.cpu_us_per_mask", "us", "lower",
           "server process CPU / mask rows in the traced window",
           _on(["masks_per_s"], DECODE_WORKLOADS)),
    _layer("server.server.rx_frames_per_flow", "count", "lower",
           "server.rx.frames delta / flows",
           _on(["flow_p50_ms"], ["scan-shortflows"])),
    _layer("server.server.tx_frames_per_flow", "count", "lower",
           "server.tx.frames delta / flows",
           _on(["flow_p50_ms"], ["scan-shortflows"])),
    _layer("server.server.tx_bytes_per_payload_byte", "ratio", "lower",
           "server.tx.bytes delta / payload bytes",
           _on(["served_mbps"], ["scan-bulk"])),
    _layer("server.server.backpressure_waits", "count", "lower",
           "server.backpressure.waits delta", [],
           "0 with workers=0; non-zero would explain a latency jump"),
    _layer("server.client.cpu_s_per_mb", "s", "lower",
           "load-generator process CPU / MB (decode: MB of mask rows)",
           [], "diagnostic: shows when the client bounds the run"),
    _layer("server.client.flow_p95_ms", "ms", "lower",
           "flow time p95, median of the per-window values", [],
           "tail kept out of end-to-end until it repeats within a tenth"),
    _layer("server.client.flow_p99_ms", "ms", "lower",
           "flow time p99 pooled over the run", [], "as flow_p95_ms"),
    _layer("server.client.step_p95_ms", "ms", "lower",
           "step time p95, median of the per-window values", [],
           "as flow_p95_ms"),
    _layer("server.client.step_p99_ms", "ms", "lower",
           "step time p99 pooled over the run", [], "as flow_p95_ms"),
    _layer("server.client.send_self_ms", "ms", "lower",
           "self time of the send spans per flow (scan) or step "
           "(decode), median", [],
           "diagnostic: client-side share of the round trip"),
    _layer("server.client.wait_self_ms", "ms", "lower",
           "self time of wait_result / wait_masks, median", [],
           "diagnostic: time the client is blocked on the server"),
    _layer("server.client.verify_self_ms", "ms", "lower",
           "self time of verify (scan) / patch (decode), median", [],
           "diagnostic: cost of checking every reply"),
    _layer("server.cluster.direct_mbps", "MB/s", "higher",
           "the scan-shortflows corpus sent straight to the backend",
           _on(["served_mbps"], ["scan-shortflows"])),
    _layer("server.cluster.hop_ms", "ms", "lower",
           "proxied flow p50 - direct flow p50",
           _on(["flow_p50_ms"], ["scan-shortflows"])),
    _layer("server.cluster.cpu_s_per_kflow", "s", "lower",
           "proxy process CPU / 1000 flows",
           _on(["served_mbps", "flow_p50_ms"], ["scan-shortflows"])),
    _layer("server.cluster.relay_frames_per_flow", "count", "lower",
           "proxy.rx.frames + proxy.tx.frames delta / flows",
           _on(["served_mbps", "flow_p50_ms"], ["scan-shortflows"])),
    _layer("core.maskgen.table_build_s", "s", "lower",
           "build_mask_table(xmlrpc(), vocab)",
           _on(["setup_s", "peak_rss_mb"], DECODE_WORKLOADS)),
    _layer("apps.structgen.masks.blob_bytes", "B", "lower",
           "len(table.to_blob())",
           _on(["peak_rss_mb"], DECODE_WORKLOADS)),
    _layer("apps.structgen.masks.blob_load_s", "s", "lower",
           "load_mask_blob of that blob",
           _on(["setup_s"], DECODE_WORKLOADS)),
    _layer("apps.structgen.masks.cd_share", "ratio", "lower",
           "describe() cd / vocab_size",
           _on(["masks_per_s"], ["decode-cd"])),
    _layer("apps.structgen.masks.session_us_per_step", "us", "lower",
           "MaskSession.advance + mask along a recorded lane path",
           _on(["masks_per_s"], ["decode-cd"])),
    _layer("apps.structgen.masks.cd_checks_per_mask", "count", "lower",
           "structgen.cd_checks delta / structgen.masks_served delta",
           _on(["masks_per_s"], ["decode-cd"]),
           "exactly 0 on decode-ci"),
    _layer("apps.structgen.masks.memo_hit_share", "ratio", "higher",
           "structgen.memo_hits / (hits + misses) deltas",
           _on(["masks_per_s"], ["decode-cd"])),
    _layer("apps.structgen.beam.step_us", "us", "lower",
           "BeamMaskSession advance/fork/rollback + masks_packed "
           "replaying the recorded op schedule",
           _on(["masks_per_s", "step_p50_ms"], ["decode-cd"]),
           "small share of the step on decode-ci"),
    _layer("apps.structgen.beam.delta_lane_share", "ratio", "higher",
           "beam_lanes_delta / (delta + full) deltas",
           _on(["step_p50_ms"], ["decode-ci"])),
    _layer("setup.import_s", "s", "lower",
           "fresh python -c 'import repro'", _on(["setup_s"], _ALL)),
    _layer("setup.tagger_cold_s", "s", "lower",
           "fresh child: construct the native tagger + first 4 KiB",
           _on(["setup_s"], SCAN_WORKLOADS)),
    _layer("service.registry.load_s", "s", "lower",
           "fresh child: Registry(tmp).load('xmlrpc@1') after an "
           "untimed publish", [],
           "moves setup_s only once serve loads from the registry"),
    _layer("ledger.trace_overhead_share", "ratio", "lower",
           "1 - traced / untraced throughput of the same run", [],
           "bounds the instrument itself"),
]


def manifest() -> dict:
    """The ``BENCHMARK.json`` object the driver reads."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {key: m[key] for key in ("name", "unit", "better", "bound")}
            for m in END_TO_END
        ],
        "per_layer": [
            {key: m[key] for key in ("name", "unit", "better")}
            for m in PER_LAYER
        ],
    }
