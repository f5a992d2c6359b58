"""Performance ledger: five workloads against the system as deployed.

    python3 benchmarks/ledger/run.py                      # all five, both passes
    python3 benchmarks/ledger/run.py --workload scan-bulk --seed 7 \\
        --seconds 16 --trace 0                            # one driver run
    python3 benchmarks/ledger/run.py --check              # two sets, compared

A run launches ``repro serve`` / ``repro structgen serve`` /
``repro cluster`` as subprocesses through the public CLI, drives them
over loopback from this process with two closed-loop connections,
verifies every reply, and prints each metric by name with its unit.
``--trace 0`` gives the end-to-end metrics; ``--trace 1`` repeats the
served phase under the span recorder and walks the in-process ladder
for the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
README.md has the definitions.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import procs

procs.pin_environment()

import catalog  # noqa: E402  (after the environment is pinned)
import corpus as corpus_mod  # noqa: E402
import hostclock  # noqa: E402
import load  # noqa: E402
import rungs  # noqa: E402
import spans  # noqa: E402

DEFAULT_SEED = 2006
WARMUP_S = 1.0
#: Warm-up of each further served phase on a deployment already warm.
PHASE_WARMUP_S = 0.25
#: Launches behind ``setup_s``: one discarded (warms the native JIT
#: cache and the page cache), then the median of this many.
SETUP_LAUNCHES = 3
#: Share of ``--seconds`` an untraced run spends in the served
#: windows; the rest times the two in-process rates.
SERVED_SHARE = 0.8
RESULTS_DIR = procs.LEDGER_DIR / "results"
HISTORY = procs.LEDGER_DIR / "history.jsonl"

_UNITS = {m["name"]: m["unit"] for m in catalog.END_TO_END + catalog.PER_LAYER}


def _is_scan(workload: str) -> bool:
    return workload in catalog.SCAN_WORKLOADS


def _build_corpus(workload: str, seed: int):
    if not _is_scan(workload):
        return corpus_mod.DecodeCorpus(workload, seed)
    if workload in ("scan-dense", "scan-bulk"):
        corpus_mod.assert_scan_discriminates(seed, rungs.native_tagger())
    return corpus_mod.scan_corpus(workload, seed)


def _serve(workload, port, corpus, tally, *, warmup_s, recorder=spans.OFF,
           record=None) -> None:
    """One served phase: the workload's closed loop into ``tally``."""
    if _is_scan(workload):
        coroutine = load.run_scan(
            port, corpus, tally, warmup_s=warmup_s, recorder=recorder
        )
    else:
        coroutine = load.run_decode(
            port, corpus, tally, warmup_s=warmup_s, recorder=recorder,
            record=record,
        )
    asyncio.run(coroutine)


def _launch_timed(workload, corpus) -> tuple[procs.Deployment, float]:
    """Spawn the SUT and time spawn -> first verified reply, at
    reference host speed."""
    before = hostclock.spin()
    start = time.perf_counter()
    deployment = procs.Deployment(workload).start()
    try:
        _probe(workload, deployment.port, corpus)
    except BaseException:
        deployment.stop()
        raise
    seconds = time.perf_counter() - start
    return deployment, seconds * hostclock.scale(
        (before, hostclock.spin()), hostclock.WEAK
    )


def _probe(workload, port, corpus) -> None:
    """The first verified reply: one whole flow on a fresh connection
    (scan: flow 0 of the corpus; decode: an 8-lane open)."""
    from repro.server.client import ScanClient

    async def one() -> None:
        async with asyncio.timeout(load.OP_TIMEOUT):
            async with ScanClient("127.0.0.1", port) as client:
                if _is_scan(workload):
                    flow = corpus.flows[0]
                    got = await client.scan_stream(flow.data, corpus.chunk)
                    ok = got == list(flow.expected)
                else:
                    beam = await client.open_beam_flow(
                        corpus.table.vocab_hash, corpus_mod.BEAM_WIDTH
                    )
                    ok = beam.rows == [corpus.row(0)] * corpus_mod.BEAM_WIDTH
                    await beam.close()
        if not ok:
            raise procs.LaunchError(f"{workload}: first reply is wrong")

    asyncio.run(one())


def _measure_setup(workload, corpus) -> tuple[procs.Deployment, float]:
    """``setup_s``: median of ``SETUP_LAUNCHES`` launches after one
    discarded launch.  Returns the last launch, still running."""
    deployment, _discarded = _launch_timed(workload, corpus)
    times = []
    for _ in range(SETUP_LAUNCHES):
        deployment.stop()
        deployment, seconds = _launch_timed(workload, corpus)
        times.append(seconds)
    return deployment, statistics.median(times)


def _check_deployment(workload, deployment, corpus) -> None:
    """Abort rather than measure a fallback: the served engine must be
    native, and a decode server must hold the table the corpus has."""
    deployment.assert_native()
    if _is_scan(workload):
        return
    tables = deployment.server.stats()["structgen"]["tables"]
    served = {(t["vocab_size"], t["cd"]) for t in tables}
    local = corpus.table.describe()
    if served != {(local["vocab_size"], local["cd"])}:
        raise corpus_mod.CorpusError(
            f"{workload}: server holds tables {served}, corpus expects "
            f"{(local['vocab_size'], local['cd'])}"
        )


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------
def run_end_to_end(workload: str, seed: int, seconds: float) -> dict:
    """``--trace 0``: every end-to-end metric, tracing off."""
    corpus = _build_corpus(workload, seed)
    in_process = rungs.ScanRates(
        corpus if _is_scan(workload) else corpus_mod.reference_corpus(seed)
    )
    _freeze_harness()
    tally = load.Tally.lasting(seconds * SERVED_SHARE)
    # The in-process rates are sampled before the served phase, while
    # this process's heap is still as _freeze_harness left it (after
    # the phase they read ~4 % lower and spread twice as wide), in two
    # blocks around the launches so that they span more of the host's
    # speed drift than one block would.
    block_s = seconds * (1 - SERVED_SHARE) / 2
    in_process.sample(block_s)
    deployment, setup_s = _measure_setup(workload, corpus)
    try:
        _check_deployment(workload, deployment, corpus)
        in_process.sample(block_s)
        _serve(workload, deployment.port, corpus, tally, warmup_s=WARMUP_S)
        peak_rss_mb = deployment.peak_rss_mb()
    finally:
        deployment.stop()
    summary = tally.summary()
    metrics = {
        "setup_s": {"value": setup_s},
        "peak_rss_mb": {"value": peak_rss_mb},
    }
    for name, value in in_process.metrics().items():
        metrics[name] = {"value": value}
    for name in ("served_mbps", "flow_p50_ms", "masks_per_s", "step_p50_ms"):
        metrics[name] = summary[name]
    # Without one completed flow there is no flow_p50_ms to report.
    return _result(
        workload, seed, tally, metrics, measured=tally.total_flows > 0
    )


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    """``--trace 1``: the served phase again under the span recorder,
    then the in-process ladder; every per-layer metric."""
    corpus = _build_corpus(workload, seed)
    _freeze_harness()
    phase_s = seconds / 12
    layer = {m["name"]: 0.0 for m in catalog.PER_LAYER}
    recorder = spans.Recorder()
    record = load.DecodeRecord()
    traced = load.Tally.lasting(2 * phase_s)
    with procs.Deployment(workload) as deployment:
        _check_deployment(workload, deployment, corpus)
        port = deployment.port

        def reference_phase(warmup_s: float) -> load.Tally:
            # Same client path as the traced phase, recorder off; on
            # decode that is the raw-frame tap, so the record is kept
            # only to select the path.
            tally = load.Tally.lasting(phase_s)
            _serve(workload, port, corpus, tally, warmup_s=warmup_s,
                   record=load.DecodeRecord())
            return tally

        # Reference windows bracket the traced ones, so a drift the
        # calibration misses still cancels in the overhead; every
        # phase opens its own connections and warms them up first.
        reference = reference_phase(WARMUP_S)
        before = _snapshot(deployment)
        _serve(workload, port, corpus, traced, warmup_s=PHASE_WARMUP_S,
               recorder=recorder, record=record)
        delta = _since(before, deployment)
        reference.absorb(reference_phase(PHASE_WARMUP_S))
        if deployment.proxy is not None:
            direct = load.Tally.lasting(2 * phase_s)
            _serve(workload, deployment.server.port, corpus, direct,
                   warmup_s=PHASE_WARMUP_S)
            layer.update(_cluster_metrics(reference, direct, traced, delta))
    layer.update(_served_metrics(workload, reference, traced, delta))
    layer.update(_span_metrics(workload, recorder, traced.scale()))
    # The rungs share what the served phases and the fresh-child
    # launches leave of --seconds; a scan ladder has sixteen.
    rung_s = seconds / 3 / 16
    if _is_scan(workload):
        layer.update(rungs.scan_ladder(corpus, rung_s))
    else:
        layer.update(rungs.decode_ladder(corpus, record, rung_s))
    layer.update(rungs.setup_ladder())
    RESULTS_DIR.mkdir(exist_ok=True)
    n_spans = recorder.write_jsonl(RESULTS_DIR / f"{workload}.trace.jsonl")
    result = _result(
        workload, seed, traced,
        {name: {"value": float(value)} for name, value in layer.items()},
        measured=traced.attempted > 0,
    )
    result["spans"] = n_spans
    return result


def _freeze_harness() -> None:
    """Take the corpus and everything imported so far out of the
    garbage collector's sight: otherwise every collection the measured
    code triggers also walks the harness's own long-lived objects
    (the in-process scan rate halves with a 2.6 MB corpus alive)."""
    gc.collect()
    gc.freeze()


def _snapshot(deployment) -> dict:
    """Admin counters and CPU clocks of the SUT and of this process at
    one instant, as group -> name -> number."""
    proxy = deployment.proxy
    return {
        "server": deployment.server.counters(),
        "proxy": proxy.counters() if proxy is not None else {},
        "cpu_s": {
            "server": deployment.server.cpu_seconds(),
            "proxy": proxy.cpu_seconds() if proxy is not None else 0.0,
            "client": time.process_time(),
        },
    }


def _since(earlier: dict, deployment) -> dict:
    """What every number of ``_snapshot`` grew by since ``earlier``."""
    now = _snapshot(deployment)
    return {
        group: {
            name: value - earlier[group].get(name, 0)
            for name, value in values.items()
        }
        for group, values in now.items()
    }


def _served_metrics(workload, reference, traced, delta) -> dict:
    """Layer metrics read off the served phases: server and client CPU
    and admin-counter deltas per unit of work in the traced phase,
    tails from the untraced reference windows.  CPU seconds are scaled
    to reference host speed like every other duration."""
    tails = reference.summary()
    overhead = 1 - (
        traced.summary()["masks_per_s"]["value"]
        / tails["masks_per_s"]["value"]
    )
    out = {
        "server.client.flow_p95_ms": tails["flow_p95_ms"]["value"],
        "server.client.flow_p99_ms": tails["flow_p99_ms"]["value"],
        "server.client.step_p95_ms": tails["step_p95_ms"]["value"],
        "server.client.step_p99_ms": tails["step_p99_ms"]["value"],
        "ledger.trace_overhead_share": overhead,
    }
    # The counters span the whole traced phase, including the
    # operations cut off when its last window closed; the CPU clocks
    # too, so CPU is divided by the server's own count of the work.
    counters = delta["server"]
    scale = traced.scale()
    out["server.client.cpu_s_per_mb"] = (
        delta["cpu_s"]["client"] * scale / (traced.total_bytes / 1e6)
    )
    out["server.server.backpressure_waits"] = counters.get(
        "server.backpressure.waits", 0
    )
    if _is_scan(workload):
        flows = counters["server.flows.finished"]
        payload = counters["server.flows.bytes"]
        out["server.server.cpu_s_per_mb"] = (
            delta["cpu_s"]["server"] * scale / (payload / 1e6)
        )
        out["server.server.rx_frames_per_flow"] = (
            counters["server.rx.frames"] / flows
        )
        out["server.server.tx_frames_per_flow"] = (
            counters["server.tx.frames"] / flows
        )
        out["server.server.tx_bytes_per_payload_byte"] = (
            counters["server.tx.bytes"] / payload
        )
    else:
        masks = counters["structgen.masks_served"]
        out["server.server.cpu_us_per_mask"] = (
            delta["cpu_s"]["server"] * scale / masks * 1e6
        )
        out["apps.structgen.masks.cd_checks_per_mask"] = (
            counters.get("structgen.cd_checks", 0) / masks
        )
        lookups = (
            counters["structgen.memo_hits"] + counters["structgen.memo_misses"]
        )
        out["apps.structgen.masks.memo_hit_share"] = (
            counters["structgen.memo_hits"] / lookups if lookups else 0.0
        )
        lanes = (
            counters["structgen.beam_lanes_delta"]
            + counters["structgen.beam_lanes_full"]
        )
        out["apps.structgen.beam.delta_lane_share"] = (
            counters["structgen.beam_lanes_delta"] / lanes
        )
    return out


def _cluster_metrics(reference, direct, traced, delta) -> dict:
    """``server.cluster.*``: what the proxy hop costs, from the same
    corpus sent straight to the backend."""
    flows = delta["server"]["server.flows.finished"]
    proxy = delta["proxy"]
    frames = proxy["proxy.rx.frames"] + proxy["proxy.tx.frames"]
    return {
        "server.cluster.direct_mbps": direct.summary()["served_mbps"]["value"],
        "server.cluster.hop_ms": (
            reference.summary()["flow_p50_ms"]["value"]
            - direct.summary()["flow_p50_ms"]["value"]
        ),
        "server.cluster.cpu_s_per_kflow": (
            delta["cpu_s"]["proxy"] * traced.scale() / (flows / 1e3)
        ),
        "server.cluster.relay_frames_per_flow": frames / flows,
    }


def _span_metrics(workload, recorder, scale: float) -> dict:
    """Median client-side self time per flow (scan) or per step
    (decode) of the send, wait and verify/patch spans, at reference
    host speed."""
    closed = recorder.closed()
    times = spans.self_times(closed)
    group_by = "trace" if _is_scan(workload) else "parent"
    names = {
        "send": "send",
        "wait_result": "wait", "wait_masks": "wait",
        "verify": "verify", "patch": "verify",
    }
    sums: dict = {}
    for span in closed:
        kind = names.get(span["name"])
        if kind is not None:
            key = (kind, span[group_by])
            sums[key] = sums.get(key, 0.0) + times[span["id"]]
    out = {}
    for kind in ("send", "wait", "verify"):
        values = [v for (k, _group), v in sums.items() if k == kind]
        out[f"server.client.{kind}_self_ms"] = (
            statistics.median(values) * scale * 1e3 if values else 0.0
        )
    return out


def _result(workload, seed, tally, metrics, *, measured: bool) -> dict:
    for name, metric in metrics.items():
        metric["unit"] = _UNITS[name]
    attempted = max(1, tally.attempted)
    return {
        "workload": workload,
        "seed": seed,
        "correct": bool(measured and not tally.failed),
        "attempted": attempted,
        "failed": tally.failed,
        "fail_share": tally.failed / attempted,
        "errors": tally.errors,
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def _print_result(result: dict, trace: int) -> None:
    kind = "per-layer (traced)" if trace else "end-to-end (untraced)"
    print(f"== {result['workload']}  seed {result['seed']}  {kind}")
    for name, metric in result["metrics"].items():
        spread = (
            f"   windows [{metric['min']:.6g} .. {metric['max']:.6g}]"
            if "min" in metric else ""
        )
        if "raw" in metric:
            spread += f"   raw {metric['raw']:.6g}"
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}{spread}")
    print(f"  {'fail_share':<48} {result['fail_share']:>14.6g} ratio   "
          f"({result['failed']} of {result['attempted']} operations)")
    for error in result["errors"]:
        print(f"  ! {error}")


def _driver_line(result: dict) -> str:
    """The contract's result object: exactly four keys, and per metric
    exactly the value as measured and its unit."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in result["metrics"].items()
        },
    })


def _host() -> dict:
    from repro.bench.host import host_info
    from repro.core.capabilities import capability_summary

    # The driver's checkout is not a git repository, and its host may
    # have no git at all.
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=procs.REPO_ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    info = host_info()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": info["host cpu model"],
        "python": platform.python_version(),
        "capabilities": capability_summary(),
        "git_commit": commit or None,
    }


def run_set(seed: int, seconds: float, trace_too: bool) -> dict:
    """Every workload once: workload -> {"end_to_end", "per_layer"}."""
    out = {}
    for workload in catalog.WORKLOADS:
        entry = {"end_to_end": run_end_to_end(workload, seed, seconds)}
        _print_result(entry["end_to_end"], 0)
        if trace_too:
            entry["per_layer"] = run_traced(workload, seed, seconds)
            _print_result(entry["per_layer"], 1)
        out[workload] = entry
    return out


def check(seed: int, seconds: float) -> int:
    """Two sets of runs of the same code and seed, side by side; a
    non-zero exit if any end-to-end metric differs by more than its
    bound (in its worse direction) or anything failed."""
    first = run_set(seed, seconds, trace_too=False)
    second = run_set(seed, seconds, trace_too=False)
    status = 0
    print(f"{'workload':<16} {'metric':<14} {'first':>12} {'second':>12} "
          f"{'worse by':>9} {'bound':>6}")
    for workload in catalog.WORKLOADS:
        a, b = first[workload]["end_to_end"], second[workload]["end_to_end"]
        for spec in catalog.END_TO_END:
            x = a["metrics"][spec["name"]]["value"]
            y = b["metrics"][spec["name"]]["value"]
            worse = (y - x) / x if spec["better"] == "lower" else (x - y) / x
            verdict = "" if abs(worse) <= spec["bound"] else "  DIFFERS"
            if verdict:
                status = 1
            print(f"{workload:<16} {spec['name']:<14} {x:>12.5g} {y:>12.5g} "
                  f"{worse:>+9.1%} {spec['bound']:>6.0%}{verdict}")
        if not (a["correct"] and b["correct"]):
            print(f"{workload:<16} fail_share {a['fail_share']:.4g} / "
                  f"{b['fail_share']:.4g}  FAILED")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds one run measures "
                             f"(default {catalog.RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "(default: both passes)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: 0.5 s windows")
    parser.add_argument("--check", action="store_true",
                        help="run every workload twice and compare")
    parser.add_argument("--record", action="store_true",
                        help="append one line per run to history.jsonl")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = 3.6 if args.quick else float(catalog.RUN_SECONDS)

    if args.check:
        return check(args.seed, seconds)

    if args.workload is not None:
        trace = args.trace or 0
        run = run_traced if trace else run_end_to_end
        result = run(args.workload, args.seed, seconds)
        _print_result(result, trace)
        runs = [result]
    else:
        results = run_set(args.seed, seconds, trace_too=args.trace != 0)
        runs = [r for entry in results.values() for r in entry.values()]
        RESULTS_DIR.mkdir(exist_ok=True)
        latest = {"host": _host(), "seed": args.seed, "seconds": seconds,
                  "workloads": results}
        (RESULTS_DIR / "latest.json").write_text(
            json.dumps(latest, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {RESULTS_DIR / 'latest.json'}")
    if args.record:
        with open(HISTORY, "a", encoding="utf-8") as handle:
            for result in runs:
                handle.write(json.dumps(
                    {"time": time.time(), "host": _host(),
                     "seconds": seconds, **result}
                ) + "\n")
    if args.workload is not None:
        # The driver reads the verdict from the line, not the status.
        print(_driver_line(runs[0]))
        return 0
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
