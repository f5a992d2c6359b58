"""The metrics registry: counters, gauges, log-bucketed histograms,
and the Prometheus plaintext exposition."""

import json

from repro.service.metrics import (
    Histogram,
    MetricsRegistry,
    escape_label_value,
    merge_expositions,
    prometheus_name,
    relabel_exposition,
)


def test_counter_accumulates():
    registry = MetricsRegistry()
    registry.counter("bytes").inc(10)
    registry.counter("bytes").inc(5)
    assert registry.snapshot()["counters"]["bytes"] == 15


def test_gauge_overwrites():
    registry = MetricsRegistry()
    registry.gauge("depth").set(7)
    registry.gauge("depth").set(3)
    assert registry.snapshot()["gauges"]["depth"] == 3


def test_instruments_created_on_first_touch():
    registry = MetricsRegistry()
    assert registry.snapshot() == {
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    registry.histogram("lat")
    assert registry.snapshot()["histograms"]["lat"]["count"] == 0


def test_histogram_summary():
    hist = Histogram("lat")
    for seconds in (0.001, 0.001, 0.001, 0.001, 0.1):
        hist.observe(seconds)
    summary = hist.summary()
    assert summary["count"] == 5
    assert summary["sum_s"] == sum((0.001, 0.001, 0.001, 0.001, 0.1))
    assert summary["max_s"] == 0.1
    # Log2 buckets: quantiles are right to within a factor of two.
    assert 0.001 <= summary["p50_s"] <= 0.002
    assert 0.1 <= summary["p99_s"] <= 0.2


def test_histogram_quantile_ordering():
    hist = Histogram("lat")
    for i in range(100):
        hist.observe(1e-6 * (i + 1))
    assert hist.quantile(0.5) <= hist.quantile(0.9) <= hist.quantile(0.99)


def test_histogram_extremes():
    hist = Histogram("lat")
    hist.observe(0.0)  # below the smallest bound
    hist.observe(1e9)  # beyond the largest bound
    assert hist.count == 2
    assert hist.max == 1e9


def test_snapshot_is_json_safe():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.gauge("g").set(1.5)
    registry.histogram("h").observe(0.01)
    encoded = json.dumps(registry.snapshot())
    assert "histograms" in encoded


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
def test_prometheus_name_sanitizes():
    assert prometheus_name("server.rx.bytes") == "repro_server_rx_bytes"
    assert prometheus_name("queue.depth.0") == "repro_queue_depth_0"
    assert prometheus_name("weird name-here!") == "repro_weird_name_here_"
    # A leading digit is invalid in the exposition grammar.
    assert prometheus_name("0day", prefix="") == "_0day"
    assert prometheus_name("ok:colon", prefix="") == "ok:colon"


def test_escape_label_value():
    assert escape_label_value('say "hi"') == 'say \\"hi\\"'
    assert escape_label_value("a\\b") == "a\\\\b"
    assert escape_label_value("line1\nline2") == "line1\\nline2"
    # Order matters: the backslash introduced by the quote escape must
    # not itself be re-escaped.
    assert escape_label_value('\\"') == '\\\\\\"'


def test_render_counters_and_gauges():
    registry = MetricsRegistry()
    registry.counter("rx.bytes").inc(42)
    registry.gauge("queue.depth.1").set(3)
    text = registry.render_prometheus()
    assert "# TYPE repro_rx_bytes counter\nrepro_rx_bytes 42" in text
    assert "# TYPE repro_queue_depth_1 gauge\nrepro_queue_depth_1 3" in text
    assert text.endswith("\n")


def test_render_histogram_bucket_cumulative_semantics():
    """le buckets are cumulative, +Inf equals _count, _sum is the
    total of observations."""
    registry = MetricsRegistry()
    hist = registry.histogram("lat")
    # Three observations into the 2e-6 bucket's range and one huge
    # outlier beyond every bound.
    for value in (1.5e-6, 1.6e-6, 1.9e-6, 1e9):
        hist.observe(value)
    text = registry.render_prometheus()
    lines = [ln for ln in text.splitlines() if ln.startswith("repro_lat")]
    bucket_counts = []
    for line in lines:
        if "_bucket" in line:
            bucket_counts.append(int(line.rsplit(" ", 1)[1]))
    # Cumulative: monotonically nondecreasing across buckets.
    assert bucket_counts == sorted(bucket_counts)
    # The 1e-6 bucket holds nothing; every bucket from 2e-6 on sees 3.
    assert bucket_counts[0] == 0
    assert bucket_counts[1] == 3
    # +Inf equals the histogram count (the outlier only shows there).
    assert 'repro_lat_bucket{le="+Inf"} 4' in text
    assert "repro_lat_count 4" in text
    assert "repro_lat_sum 1e+09" in text


def test_render_histogram_empty():
    registry = MetricsRegistry()
    registry.histogram("idle")
    text = registry.render_prometheus()
    assert 'repro_idle_bucket{le="+Inf"} 0' in text
    assert "repro_idle_count 0" in text


# ----------------------------------------------------------------------
# custom bucket bounds (batch sizes, skip ratios)
# ----------------------------------------------------------------------
def test_histogram_custom_bounds():
    hist = Histogram("batch.size", bounds=(1.0, 2.0, 4.0, 8.0))
    assert hist.bounds == (1.0, 2.0, 4.0, 8.0)
    for size in (1, 2, 3, 7, 100):
        hist.observe(size)
    # counts: <=1, <=2, <=4, <=8, overflow
    assert hist.counts == [1, 1, 1, 1, 1]
    assert hist.quantile(0.5) == 4.0
    assert hist.summary()["count"] == 5


def test_histogram_bounds_fixed_on_first_creation():
    registry = MetricsRegistry()
    first = registry.histogram("batch.size", bounds=(1.0, 8.0))
    again = registry.histogram("batch.size", bounds=(2.0, 4.0, 16.0))
    assert again is first
    assert again.bounds == (1.0, 8.0)


def test_render_histogram_custom_bounds():
    registry = MetricsRegistry()
    hist = registry.histogram("skip.ratio", bounds=(0.5, 1.0))
    hist.observe(0.25)
    hist.observe(0.75)
    text = registry.render_prometheus()
    assert 'repro_skip_ratio_bucket{le="0.5"} 1' in text
    assert 'repro_skip_ratio_bucket{le="1"} 2' in text
    assert 'repro_skip_ratio_bucket{le="+Inf"} 2' in text


def test_service_batch_and_skip_instruments():
    """Custom bounds register usable instruments: sizes land in
    power-of-two buckets, ratios in tenths."""
    registry = MetricsRegistry()
    batch = registry.histogram(
        "batch.size", bounds=tuple(float(1 << i) for i in range(9))
    )
    for flows in (1, 2, 8, 32, 300):
        batch.observe(flows)
    skip = registry.histogram(
        "vector.skip_ratio", bounds=tuple(i / 10 for i in range(1, 11))
    )
    skip.observe(0.0)
    skip.observe(0.97)
    snapshot = registry.snapshot()
    assert snapshot["histograms"]["batch.size"]["count"] == 5
    assert snapshot["histograms"]["batch.size"]["max_s"] == 300
    assert snapshot["histograms"]["vector.skip_ratio"]["p99_s"] == 1.0
    text = registry.render_prometheus()
    assert 'repro_batch_size_bucket{le="8"} 3' in text


# ----------------------------------------------------------------------
# exposition merging (the proxy's aggregated /metrics)
# ----------------------------------------------------------------------
def test_relabel_injects_labels_into_every_sample():
    registry = MetricsRegistry()
    registry.counter("rx.frames").inc(3)
    hist = registry.histogram("lat", bounds=(0.5,))
    hist.observe(0.1)
    text = relabel_exposition(
        registry.render_prometheus(), {"backend": "10.0.0.1:9431"}
    )
    assert 'repro_rx_frames{backend="10.0.0.1:9431"} 3' in text
    # Existing le labels are preserved, new labels appended.
    assert (
        'repro_lat_bucket{le="0.5",backend="10.0.0.1:9431"} 1' in text
    )
    assert 'repro_lat_count{backend="10.0.0.1:9431"} 1' in text
    # Comments pass through untouched.
    assert "# TYPE repro_rx_frames counter" in text


def test_relabel_escapes_label_values():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    text = relabel_exposition(
        registry.render_prometheus(), {"name": 'a"b\\c'}
    )
    assert 'name="a\\"b\\\\c"' in text


def test_merge_expositions_regroups_per_metric():
    """Two backends exposing the same metric merge into ONE block —
    a single # TYPE comment with both labeled samples under it, as
    the exposition format requires."""
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("rx.frames").inc(1)
    a.counter("only.a").inc(7)
    b.counter("rx.frames").inc(2)
    merged = merge_expositions(
        [
            ({"backend": "a:1"}, a.render_prometheus()),
            ({"backend": "b:2"}, b.render_prometheus()),
        ]
    )
    lines = merged.splitlines()
    assert lines.count("# TYPE repro_rx_frames counter") == 1
    type_at = lines.index("# TYPE repro_rx_frames counter")
    # Both samples sit directly under the one TYPE line.
    group = lines[type_at + 1 : type_at + 3]
    assert 'repro_rx_frames{backend="a:1"} 1' in group
    assert 'repro_rx_frames{backend="b:2"} 2' in group
    assert 'repro_only_a{backend="a:1"} 7' in merged


def test_merge_expositions_unlabeled_part_passes_through():
    own = MetricsRegistry()
    own.gauge("backends.healthy").set(2)
    merged = merge_expositions([({}, own.render_prometheus())])
    assert "repro_backends_healthy 2" in merged
