"""Tests of the ledger itself: the manifest, the span recorder, the
failure accounting, and a quick end-to-end smoke of all five workloads.

    PYTHONPATH=src python -m pytest benchmarks/ledger/tests -q
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import re
import shutil
import subprocess
import sys
import threading

import pytest

import catalog
import corpus as corpus_mod
import hostclock
import load
import procs
import spans

RUN = [sys.executable, str(procs.LEDGER_DIR / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# manifest and catalog
# ----------------------------------------------------------------------
def test_benchmark_json_is_the_catalog():
    manifest = json.loads(
        (procs.REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    )
    assert manifest == catalog.manifest()


def test_manifest_is_inside_the_contract_limits():
    manifest = catalog.manifest()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert 1 <= manifest["run_seconds"] <= 60
    names = []
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower",
         "bound": max(m["bound"] for m in manifest["end_to_end"])}
    ]


def test_every_layer_metric_says_what_it_should_move():
    end_to_end = {m["name"] for m in catalog.END_TO_END}
    for metric in catalog.PER_LAYER:
        assert metric["how"], metric["name"]
        for moved, workload in metric["moves"]:
            assert moved in end_to_end, metric["name"]
            assert workload in catalog.WORKLOADS, metric["name"]
        # A metric predicted to move nothing says why it is kept.
        assert metric["moves"] or metric["note"], metric["name"]
        # The prefix is a module under src/repro (or the harness).
        prefix = metric["name"].split(".")[0]
        assert prefix in ("setup", "ledger") or (
            procs.REPO_ROOT / "src" / "repro" / prefix
        ).is_dir(), metric["name"]


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def assert_well_formed(closed: list) -> None:
    by_id = {span["id"]: span for span in closed}
    roots = {}
    for span in closed:
        assert span["end"] >= span["start"]
        if span["parent"] == -1:
            assert span["trace"] not in roots, "two roots in one trace"
            roots[span["trace"]] = span
        else:
            parent = by_id[span["parent"]]
            assert parent["trace"] == span["trace"]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
    assert {span["trace"] for span in closed} == set(roots)
    for seconds in spans.self_times(closed).values():
        assert seconds >= -1e-9


def test_recorder_builds_one_tree_per_trace():
    recorder = spans.Recorder()
    for trace in range(3):
        with recorder.root("flow", trace) as flow:
            with flow.child("open"):
                pass
            for _ in range(2):
                with flow.child("step") as step:
                    with step.child("send"):
                        pass
    closed = recorder.closed()
    assert len(closed) == 3 * (1 + 1 + 2 * 2)
    assert_well_formed(closed)
    names = [span["name"] for span in closed]
    assert sorted(set(names)) == ["flow", "open", "send", "step"]
    assert names.count("send") == 6


def test_self_time_subtracts_only_what_children_cover():
    closed = [
        {"id": 0, "name": "flow", "start": 0.0, "end": 10.0,
         "parent": -1, "trace": 0},
        {"id": 1, "name": "a", "start": 1.0, "end": 4.0,
         "parent": 0, "trace": 0},
        {"id": 2, "name": "b", "start": 3.0, "end": 6.0,
         "parent": 0, "trace": 0},  # overlaps a: covered once
    ]
    assert spans.self_times(closed) == {0: 5.0, 1: 3.0, 2: 3.0}


def test_an_unfinished_span_drops_its_subtree():
    recorder = spans.Recorder()
    with recorder.root("flow", 0) as done:
        with done.child("open"):
            pass
    cut = recorder.root("flow", 1)
    cut.__enter__()
    with cut.child("open"):
        pass
    assert [s["trace"] for s in recorder.closed()] == [0, 0]


def test_the_off_recorder_records_nothing():
    with spans.OFF.root("flow", 0) as flow:
        with flow.child("open") as child:
            assert child.child("deeper") is child


# ----------------------------------------------------------------------
# corpora
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", catalog.SCAN_WORKLOADS)
def test_scan_ground_truth_agrees_with_the_router(name):
    """The expectations come from the generator; the in-process router
    is only used here, to show that the two agree."""
    from repro.apps.xmlrpc import ContentBasedRouter

    scan = corpus_mod.scan_corpus(name, seed=11)
    router = ContentBasedRouter()
    for flow in scan.flows[:3]:
        assert router.route(flow.data) == list(flow.expected)
        assert b"".join(scan.chunks(flow)) == flow.data


def test_corpora_depend_on_the_seed_and_only_on_it():
    a = corpus_mod.scan_corpus("scan-bulk", seed=1)
    b = corpus_mod.scan_corpus("scan-bulk", seed=1)
    c = corpus_mod.scan_corpus("scan-bulk", seed=2)
    assert [f.data for f in a.flows] == [f.data for f in b.flows]
    assert [f.data for f in a.flows] != [f.data for f in c.flows]
    # Same bytes per flow whatever the seed draws.
    assert {len(f.data) // 1024 for f in a.flows + c.flows} == {40}


# ----------------------------------------------------------------------
# host-speed scaling
# ----------------------------------------------------------------------
def test_a_slow_host_scales_out_of_rates_and_latencies():
    """On a host where the served path runs half as fast (both probes
    slower by the factor that the served sensitivities turn into 2)
    the same system completes half the operations per window, each
    taking twice as long; the reported values are those of the
    reference host either way."""
    reported = []
    for slowdown in (1, 2):
        tally = load.Tally(windows=3, window_s=1.0)
        tally.start = 0.0
        probes_slower = slowdown ** (1 / sum(hostclock.SERVED))
        reading = hostclock.Reading(
            hostclock.REFERENCE_LOOP_S * probes_slower,
            hostclock.REFERENCE_CHASE_S * probes_slower,
        )
        for edge in range(4):
            tally.calibrated(edge, reading)
        for window in range(3):
            for _ in range(40 // slowdown):
                now = window + 0.5
                tally.step_done(now, 0.010 * slowdown, 250_000, 4)
                tally.flow_done(now, 0.030 * slowdown)
        summary = tally.summary()
        assert summary["served_mbps"]["raw"] == pytest.approx(10 / slowdown)
        assert summary["step_p50_ms"]["raw"] == pytest.approx(10 * slowdown)
        assert summary["step_p50_ms"]["value"] == pytest.approx(10)
        assert summary["flow_p50_ms"]["value"] == pytest.approx(30)
        # 120 or 60 samples: neither tail has ten beyond it.
        assert summary["flow_p95_ms"]["value"] == 0.0
        # The loop is blocked while the left-edge probes run.
        busy_s = 1.0 - reading.cpu_s
        reported.append(
            (summary["served_mbps"]["value"] * busy_s,
             summary["masks_per_s"]["value"] * busy_s)
        )
    assert reported[0] == pytest.approx((10, 160))
    assert reported[1] == pytest.approx(reported[0])


# ----------------------------------------------------------------------
# failures are counted
# ----------------------------------------------------------------------
def _serve(port, scan, tally) -> None:
    asyncio.run(load.run_scan(port, scan, tally, warmup_s=0.0))


def test_an_injected_mismatch_shows_in_fail_share():
    scan = corpus_mod.scan_corpus("scan-shortflows", seed=3)
    wrong = dataclasses.replace(
        scan.flows[0],
        expected=(
            dataclasses.replace(scan.flows[0].expected[0], port=99),
        ) + scan.flows[0].expected[1:],
    )
    scan = dataclasses.replace(scan, flows=(wrong,) + scan.flows[1:8])
    tally = load.Tally(windows=4)
    with procs.Deployment("scan-dense") as deployment:
        _serve(deployment.port, scan, tally)
    assert tally.failed >= 1
    # One flow in eight is wrong, and only that one.
    assert tally.failed / tally.attempted == pytest.approx(1 / 8, abs=0.05)
    assert "mismatch" in tally.errors[0]


def test_a_killed_server_shows_in_fail_share_and_the_run_still_ends():
    scan = corpus_mod.scan_corpus("scan-shortflows", seed=3)
    tally = load.Tally(windows=8)
    with procs.Deployment("scan-dense") as deployment:
        killer = threading.Timer(0.7, deployment.server.process.kill)
        killer.start()
        try:
            _serve(deployment.port, scan, tally)
        finally:
            killer.cancel()
        assert not deployment.server.alive()
    assert tally.attempted > tally.failed >= 1
    assert tally.total_flows >= 1


def test_children_are_gone_after_a_failure_inside_the_deployment():
    with pytest.raises(AssertionError):
        with procs.Deployment("scan-shortflows") as deployment:
            children = deployment.children
            assert len(children) == 2
            raise AssertionError("abort the run")
    assert not any(child.alive() for child in children)


# ----------------------------------------------------------------------
# the command
# ----------------------------------------------------------------------
def test_driver_run_with_another_seed_prints_the_contract_line():
    done = subprocess.run(
        RUN + ["--workload", "scan-shortflows", "--seed", "77",
               "--seconds", "3.6", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in catalog.END_TO_END}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_quick_smoke_of_all_five_workloads(tmp_path):
    done = subprocess.run(
        RUN + ["--quick"], capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    # Every declared name is printed with its declared unit.
    for metric in catalog.END_TO_END + catalog.PER_LAYER:
        pattern = rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}\b"
        assert re.search(pattern, done.stdout, re.M), metric["name"]
    assert re.search(r"^\s+fail_share\s+0 ratio", done.stdout, re.M)

    latest = json.loads(
        (procs.LEDGER_DIR / "results" / "latest.json").read_text()
    )
    assert set(latest["workloads"]) == set(catalog.WORKLOADS)
    assert latest["host"]["nproc"] >= 1
    layer = {
        name: {
            m: v["value"]
            for m, v in entry["per_layer"]["metrics"].items()
        }
        for name, entry in latest["workloads"].items()
    }
    for name, entry in latest["workloads"].items():
        assert entry["end_to_end"]["correct"], name
        assert entry["per_layer"]["correct"], name
        assert "ledger.trace_overhead_share" in layer[name]
        trace = procs.LEDGER_DIR / "results" / f"{name}.trace.jsonl"
        closed = [json.loads(line) for line in trace.read_text().splitlines()]
        assert closed, name
        assert_well_formed(closed)

    # The workloads discriminate as designed.
    assert (
        layer["scan-dense"]["core.nativescan.events_per_mb"]
        >= 50 * layer["scan-bulk"]["core.nativescan.events_per_mb"]
    )
    for name in catalog.WORKLOADS:
        cluster = [
            v for m, v in layer[name].items()
            if m.startswith("server.cluster.")
        ]
        assert all(cluster) if name == "scan-shortflows" else not any(cluster)
    cd_checks = "apps.structgen.masks.cd_checks_per_mask"
    assert layer["decode-ci"][cd_checks] == 0
    assert layer["decode-cd"][cd_checks] > 0


def test_an_empty_checkout_fails_without_a_result(tmp_path):
    shutil.copy(procs.REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        procs.LEDGER_DIR, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns(
            ".cache", "results", "__pycache__", "history.jsonl"
        ),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "scan-dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
