"""Exporters: spans to Chrome-trace JSON, metrics to a flat snapshot file.

The trace format is the Chrome Trace Event JSON format (loadable in
``chrome://tracing`` and https://ui.perfetto.dev): an object with a
``traceEvents`` list of complete ("X") events, timestamps and durations in
microseconds.  Span ids and parent ids ride along in ``args`` so the exact
tree is recoverable from the file — that is what lint rule ART011 and the
golden fixture validate.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..utility.atomic import atomic_writer
from .trace import Span

#: Trace-format tag stamped into every exported trace file.
TRACE_SCHEMA = "repro.obs/trace@1"


def _atomic_write_json(payload: Any, path: Path) -> None:
    with atomic_writer(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def chrome_trace_payload(
    spans: Sequence[Span], process_name: str = "repro"
) -> dict[str, Any]:
    """The Chrome-trace JSON object for a span list.

    Events are sorted by start time (then span id) so timestamps in the
    file are monotone non-decreasing regardless of close order.
    """
    events: list[dict[str, Any]] = [
        {
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "ts": 0,
            "name": "process_name",
            "args": {"name": process_name},
        }
    ]
    origin = min((span.start for span in spans), default=0.0)
    known = {span.span_id for span in spans}
    for span in sorted(spans, key=lambda s: (s.start, s.span_id)):
        args: dict[str, Any] = {"span": span.span_id}
        # A parent outside the exported set (e.g. an enclosing span still
        # open when a per-run slice was cut) renders as a root.
        if span.parent_id is not None and span.parent_id in known:
            args["parent"] = span.parent_id
        args.update(span.args)
        events.append(
            {
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(max(span.duration, 0.0) * 1e6, 3),
                "name": span.name,
                "cat": span.category,
                "args": args,
            }
        )
    return {
        "schema": TRACE_SCHEMA,
        "displayTimeUnit": "ms",
        "traceEvents": events,
    }


def write_chrome_trace(
    spans: Sequence[Span], path: str | Path, process_name: str = "repro"
) -> Path:
    """Write spans to ``path`` as Chrome-trace JSON (atomic). Returns path."""
    target = Path(path)
    _atomic_write_json(chrome_trace_payload(spans, process_name), target)
    return target


def write_metrics_snapshot(snapshot: Mapping[str, Any], path: str | Path) -> Path:
    """Write a metrics snapshot to ``path`` as sorted JSON (atomic)."""
    target = Path(path)
    _atomic_write_json(dict(snapshot), target)
    return target


def read_trace_events(path: str | Path) -> list[dict[str, Any]]:
    """The ``traceEvents`` list of a Chrome-trace file."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError(f"{path}: not a Chrome-trace file (no traceEvents list)")
    return events


def spans_from_trace_file(path: str | Path) -> list[Span]:
    """Rebuild :class:`Span` objects from an exported Chrome-trace file."""
    spans: list[Span] = []
    for event in read_trace_events(path):
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        span_id = int(args.pop("span"))
        parent = args.pop("parent", None)
        start = float(event["ts"]) / 1e6
        spans.append(
            Span(
                span_id=span_id,
                parent_id=None if parent is None else int(parent),
                name=str(event["name"]),
                category=str(event.get("cat", "runtime")),
                start=start,
                end=start + float(event.get("dur", 0.0)) / 1e6,
                args=args,
            )
        )
    return spans


def read_metrics_snapshot(path: str | Path) -> dict[str, Any]:
    """Load a metrics snapshot file."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a metrics snapshot (not an object)")
    return payload

