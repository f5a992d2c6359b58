"""Shared benchmark utilities: results directory, report sink, and the
machine-readable throughput record (``BENCH_throughput.json``)."""

from __future__ import annotations

import json
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Machine-readable engine -> Gbps record, written at the repo root so
#: CI and the driver can diff throughput across revisions.
BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_throughput.json"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


_written_this_session: list[str] = []


@pytest.fixture(scope="session")
def report_sink(results_dir):
    """Write (and echo) a named experiment report."""

    def write(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        _written_this_session.append(name)
        print(f"\n===== {name} =====")
        print(text)

    return write


_bench_rates: dict[str, float | None] = {}


@pytest.fixture(scope="session")
def bench_record():
    """Record one engine's measured rate (Gbps) for BENCH_throughput.json.

    Rates (``unit="gbps"``, the default) also write a derived
    ``"<engine> MB/s"`` key so the record is readable in both units;
    unitless entries (speedup ratios, CPU counts) pass ``unit=None``.
    ``None`` records as JSON ``null`` — the explicit "not measured on
    this host" marker (e.g. worker-scaling ratios on tiny hosts)."""

    def record(
        engine: str, value: float | None, unit: str | None = "gbps"
    ) -> None:
        _bench_rates[engine] = None if value is None else round(value, 9)
        if unit == "gbps":
            _bench_rates[f"{engine} MB/s"] = (
                None if value is None else round(value * 125.0, 6)
            )

    return record


def pytest_sessionfinish(session):
    if _bench_rates:
        existing: dict = {}
        if BENCH_JSON.exists():
            try:
                existing = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
            except ValueError:
                existing = {}
        # Merge: a run of one test keeps what the others recorded.
        existing.update(_bench_rates)
        from repro.bench.host import host_info

        existing.update(host_info())
        BENCH_JSON.write_text(
            json.dumps(existing, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


def pytest_terminal_summary(terminalreporter):
    """Echo every experiment report into the visible run summary."""
    for name in _written_this_session:
        path = RESULTS_DIR / f"{name}.txt"
        if not path.exists():
            continue
        terminalreporter.section(f"experiment report: {name}")
        terminalreporter.write(path.read_text())
