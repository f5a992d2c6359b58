"""Lightweight service metrics: counters, gauges, latency histograms.

The hardware exposes its health as wire-visible signals (detect pulses
per port, parse_error); a software serving layer needs the same
observability. This module is a tiny dependency-free metrics registry
in the Prometheus style: monotonically increasing :class:`Counter`\\ s,
point-in-time :class:`Gauge`\\ s, and log-bucketed :class:`Histogram`\\ s
for latency, all reachable through one :class:`MetricsRegistry` whose
:meth:`~MetricsRegistry.snapshot` renders plain nested dicts (JSON-safe,
diffable, assertable in tests).

The registry is driven from the service's submitter thread; individual
operations are single bytecode updates on ints, so occasional use from
another thread cannot corrupt state (at worst a lost increment), which
is the standard stats-registry trade-off.
"""

from __future__ import annotations

import re

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "escape_label_value",
    "merge_expositions",
    "prometheus_name",
    "relabel_exposition",
]

_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str, prefix: str = "repro") -> str:
    """Map a dotted registry name onto the Prometheus metric-name
    charset (``[a-zA-Z_:][a-zA-Z0-9_:]*``): dots and other invalid
    characters become underscores, and a leading digit is guarded."""
    flat = _NAME_BAD.sub("_", name)
    if flat and flat[0].isdigit():
        flat = "_" + flat
    return f"{prefix}_{flat}" if prefix else flat


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: backslash,
    double quote, and newline must be escaped inside ``label="..."``."""
    return (
        value.replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def relabel_exposition(text: str, labels: dict[str, str]) -> str:
    """Inject ``labels`` into every sample line of a Prometheus
    exposition (comment lines pass through untouched). Existing
    labels — histogram ``le`` buckets — are preserved; the new pairs
    are appended after them."""
    if not labels:
        return text
    pairs = ",".join(
        f'{key}="{escape_label_value(str(value))}"'
        for key, value in sorted(labels.items())
    )
    out: list[str] = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            out.append(line)
            continue
        if "{" in line:
            name, _, rest = line.partition("{")
            existing, _, value = rest.rpartition("} ")
            out.append(f"{name}{{{existing},{pairs}}} {value}")
        else:
            name, _, value = line.partition(" ")
            out.append(f"{name}{{{pairs}}} {value}")
    return "\n".join(out) + ("\n" if text.endswith("\n") else "")


def merge_expositions(
    parts: list[tuple[dict[str, str], str]]
) -> str:
    """Merge several expositions into one scrapeable page.

    Each part is ``(labels, exposition_text)``; the labels are
    injected into that part's samples (so a proxy can tag each
    backend's metrics with ``backend="host:port"``). The format
    requires every line of one metric grouped under a single
    ``# TYPE`` comment, so samples of the same metric arriving from
    several parts are regrouped into one block, comments deduped."""
    order: list[str] = []
    blocks: dict[str, dict[str, list[str]]] = {}

    def block_for(key: str) -> dict[str, list[str]]:
        block = blocks.get(key)
        if block is None:
            block = blocks[key] = {"comments": [], "samples": []}
            order.append(key)
        return block

    for labels, text in parts:
        current: dict[str, list[str]] | None = None
        for line in relabel_exposition(text, labels).splitlines():
            if not line:
                continue
            if line.startswith("#"):
                # "# TYPE <metric> <kind>" / "# HELP <metric> ..."
                words = line.split()
                key = words[2] if len(words) >= 3 else line
                current = block_for(key)
                if line not in current["comments"]:
                    current["comments"].append(line)
            elif current is not None:
                # render_prometheus() groups samples under their
                # comment, so the open block owns this line.
                current["samples"].append(line)
            else:
                # Headerless sample: group by its own name.
                key = line.partition("{")[0].partition(" ")[0]
                block_for(key)["samples"].append(line)
    lines: list[str] = []
    for key in order:
        lines.extend(blocks[key]["comments"])
        lines.extend(blocks[key]["samples"])
    return "\n".join(lines) + "\n"


class Counter:
    """A monotonically increasing count (events, bytes, errors)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (queue depth, open flows)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


#: Default histogram bucket upper bounds: 1 µs · 2^i, topping out
#: above a minute — wide enough for per-chunk scan times and full
#: round trips.
_BUCKET_BOUNDS = tuple(1e-6 * (1 << i) for i in range(27))


class Histogram:
    """Log₂-bucketed histogram (latency seconds by default).

    Fixed buckets keep ``observe`` O(log n_buckets) with no allocation;
    quantiles are read back bucket-resolution-accurate (a factor of 2),
    which is plenty to tell "microseconds" from "milliseconds" from
    "stalled". ``bounds`` overrides the bucket edges for distributions
    in other units (mask-table cold-start milliseconds).
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "max")

    def __init__(
        self, name: str, bounds: tuple[float, ...] | None = None
    ) -> None:
        self.name = name
        self.bounds = _BUCKET_BOUNDS if bounds is None else tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        bounds = self.bounds
        lo, hi = 0, len(bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile sample."""
        if not self.count:
            return 0.0
        bounds = self.bounds
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= rank:
                return bounds[min(i, len(bounds) - 1)]
        return self.max

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum_s": self.total,
            "avg_s": self.total / self.count if self.count else 0.0,
            "p50_s": self.quantile(0.50),
            "p90_s": self.quantile(0.90),
            "p99_s": self.quantile(0.99),
            "max_s": self.max,
        }


class MetricsRegistry:
    """Named metric instruments, created on first touch."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, bounds: tuple[float, ...] | None = None
    ) -> Histogram:
        """Named histogram; ``bounds`` applies on first creation only
        (an existing instrument keeps its buckets)."""
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name, bounds)
        return metric

    # ------------------------------------------------------------------
    def render_prometheus(self, prefix: str = "repro") -> str:
        """Plaintext Prometheus exposition of every instrument.

        Counters and gauges render as single samples; histograms render
        the standard ``_bucket``/``_sum``/``_count`` triple, where each
        ``le`` bucket holds the *cumulative* count of observations at
        or below its bound and ``le="+Inf"`` equals ``_count``.
        """
        lines: list[str] = []
        for name, counter in sorted(self._counters.items()):
            metric = prometheus_name(name, prefix)
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {counter.value}")
        for name, gauge in sorted(self._gauges.items()):
            metric = prometheus_name(name, prefix)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {gauge.value:g}")
        for name, hist in sorted(self._histograms.items()):
            metric = prometheus_name(name, prefix)
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for bound, count in zip(hist.bounds, hist.counts):
                cumulative += count
                le = escape_label_value(f"{bound:.6g}")
                lines.append(
                    f'{metric}_bucket{{le="{le}"}} {cumulative}'
                )
            lines.append(
                f'{metric}_bucket{{le="+Inf"}} {hist.count}'
            )
            lines.append(f"{metric}_sum {hist.total:g}")
            lines.append(f"{metric}_count {hist.count}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """Plain-dict view of every instrument (JSON-serializable)."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.summary()
                for name, h in sorted(self._histograms.items())
            },
        }
