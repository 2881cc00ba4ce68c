"""Run logs and manifests.

A run directory holds two artifacts:

* ``events.jsonl`` — an append-only JSON-lines log, one event per task
  state transition (``cache-hit``, ``submitted``, ``finished``, ``failed``,
  ``timeout``, ``retry``, ``blocked``, ``inline-fallback``) and
  run-level ``run-start`` / ``run-finish`` records.  Appending is
  crash-safe: a killed run leaves a readable prefix, never a torn file
  (at worst one truncated final line, which readers skip).
* ``manifest.json`` — the run's identity and final tallies, written
  atomically at start (``status: "running"``) and rewritten at the end, so
  an interrupted run is recognizable by its stale ``running`` status.

A run executed under an enabled observation (``repro study --trace``)
additionally drops ``trace.json`` (Chrome-trace spans) and ``metrics.json``
next to the manifest.

These artifacts are plain data and are validated by the lint layer
(``ART009`` for the log/manifest, ``ART011`` for trace/metrics) like every
other checkable object in the pipeline.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Iterable

from ..utility.atomic import atomic_writer

EVENTS_FILENAME = "events.jsonl"
MANIFEST_FILENAME = "manifest.json"
#: Written next to the manifest by a run under an enabled observation
#: (see :mod:`repro.obs`): a Chrome-trace span file and a flat metrics
#: snapshot, both covering exactly that run (validated by lint ART011).
TRACE_FILENAME = "trace.json"
METRICS_FILENAME = "metrics.json"

#: Event kinds the executor emits (ART009 validates against this set).
EVENT_KINDS = frozenset(
    {
        "run-start",
        "run-finish",
        "cache-hit",
        "submitted",
        "finished",
        "failed",
        "timeout",
        "retry",
        "blocked",
        "inline-fallback",
    }
)


class RunLog:
    """Appends task events to ``events.jsonl`` inside one run directory."""

    def __init__(self, run_dir: str | Path):
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.events_path = self.run_dir / EVENTS_FILENAME

    def event(self, kind: str, task_id: str | None = None, **fields: Any) -> None:
        """Append one event record (flushed immediately)."""
        record: dict[str, Any] = {"ts": time.time(), "event": kind}
        if task_id is not None:
            record["task"] = task_id
        record.update(fields)
        with self.events_path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")

    def write_manifest(self, manifest: dict[str, Any]) -> Path:
        """Atomically (re)write the run manifest; returns its path."""
        path = self.run_dir / MANIFEST_FILENAME
        with atomic_writer(path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
        return path


def read_events(path: str | Path) -> list[dict[str, Any]]:
    """Parse an ``events.jsonl`` file, skipping a torn trailing line."""
    records: list[dict[str, Any]] = []
    events_path = Path(path)
    if not events_path.exists():
        return records
    with events_path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                # A run killed mid-write leaves at most one torn final
                # line; everything before it is still valid history.
                continue
    return records


def read_manifest(run_dir: str | Path) -> dict[str, Any]:
    """Load ``manifest.json`` from a run directory."""
    with (Path(run_dir) / MANIFEST_FILENAME).open("r", encoding="utf-8") as handle:
        return json.load(handle)


def summarize_events(events: Iterable[dict[str, Any]]) -> dict[str, int]:
    """Event-kind counts over an event stream (for reports and checks)."""
    counts: dict[str, int] = {}
    for record in events:
        kind = record.get("event", "?")
        counts[kind] = counts.get(kind, 0) + 1
    return counts
