"""A small in-memory span recorder for the traced pass.

The harness wraps each call it makes into a layer in a span: name,
start, end, the span that caused it, and the flow/op id its tree
belongs to.  Spans stay in memory and are written as JSON lines when
the run ends.  A span's *self time* is its duration minus the part of
that interval its child spans cover.  With tracing off the recorder is
:data:`OFF`, whose spans cost one attribute lookup and a no-op
context manager.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class _Span:
    __slots__ = ("recorder", "name", "trace", "parent", "index", "start")

    def __init__(self, recorder, name, trace, parent) -> None:
        self.recorder = recorder
        self.name = name
        self.trace = trace
        self.parent = parent
        self.index = -1
        self.start = 0.0

    def __enter__(self) -> "_Span":
        records = self.recorder.records
        self.index = len(records)
        records.append(None)  # children started meanwhile index after us
        self.start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        end = time.perf_counter()
        self.recorder.records[self.index] = (
            self.name,
            self.start,
            end,
            self.parent.index if self.parent is not None else -1,
            self.trace,
        )

    def child(self, name: str) -> "_Span":
        return _Span(self.recorder, name, self.trace, self)


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *_exc) -> None:
        return None

    def child(self, _name):
        return self


_NO_SPAN = _NoSpan()


class Recorder:
    """Collects spans; ``root(name, trace)`` opens a tree, and
    ``span.child(name)`` hangs a span under another."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, trace id); an entry
        #: is ``None`` while its span is still open.
        self.records: list = []

    def root(self, name: str, trace) -> _Span:
        return _Span(self, name, trace, None)

    def closed(self) -> list:
        """Finished spans as dicts (a span cut off by the end of the
        window, and everything below it, is dropped)."""
        records = self.records
        keep = {}
        for index, record in enumerate(records):
            if record is None:
                continue
            parent = record[3]
            if parent != -1 and parent not in keep:
                continue
            keep[index] = {
                "id": index, "name": record[0], "start": record[1],
                "end": record[2], "parent": parent, "trace": record[4],
            }
        return list(keep.values())

    def write_jsonl(self, path) -> int:
        spans = self.closed()
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
        return len(spans)


class _Off:
    def root(self, _name, _trace):
        return _NO_SPAN


OFF = _Off()


def self_times(spans: list) -> dict[int, float]:
    """span id -> duration minus the time covered by its children."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] != -1:
            children[span["parent"]].append((span["start"], span["end"]))
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        out[span["id"]] = (span["end"] - span["start"]) - covered
    return out
