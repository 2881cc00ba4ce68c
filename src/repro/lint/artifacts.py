"""Layer 1 — static validation of anonymization artifacts.

These checkers inspect artifacts without anonymizing anything.  Two kinds
are covered:

* the generalization hierarchies a run recodes with — a hierarchy whose
  chains do not reach the root, or whose levels do not coarsen, yields a
  wrong release and wrong property vectors downstream, so the recoding
  engine refuses to run on one (:func:`repro.lint.api.ensure_valid_hierarchies`);
* the files a run leaves behind — run logs, the result store, traces and
  metrics, and the committed benchmark trajectories.

Rule ids
--------
========  ====================================================
``ART001``  hierarchy completeness (chain to the root)
``ART002``  hierarchy monotonicity (levels must coarsen)
``ART009``  runtime run-log contract (manifest + events)
``ART010``  content-addressed cache store integrity
``ART011``  observability artifact contract (trace + metrics files)
``ART012``  benchmark trajectory contract (every ``BENCH_*.json`` file)
========  ====================================================

Every ``BENCH_*.json`` file must be a ``repro.bench/trajectory@1``
trajectory.  A file with any other schema tag — a leftover
``repro.bench/serve@1`` document, say — is one ``ART012`` error naming
the unexpected schema.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..hierarchy.base import SUPPRESSED, Hierarchy, HierarchyError
from .diagnostics import Diagnostic, DiagnosticCollector

#: Number of probe points sampled from a numeric hierarchy's bounds.
_NUMERIC_SAMPLE_POINTS = 17


def domain_sample(hierarchy: Hierarchy, sample: Iterable[Any] | None = None) -> list[Any]:
    """A deterministic list of domain values to probe a hierarchy with.

    Explicit ``sample`` wins; otherwise taxonomy leaves, a declared masking
    domain, or a uniform grid over numeric bounds are used.  Returns an
    empty list when no domain is discoverable (domain checks are skipped).
    """
    if sample is not None:
        return list(sample)
    leaves = getattr(hierarchy, "leaves", None)
    if leaves:
        return list(leaves)
    domain = getattr(hierarchy, "domain", None)
    if domain:
        return sorted(domain, key=str)
    bounds = getattr(hierarchy, "bounds", None)
    if bounds:
        low, high = bounds
        step = (high - low) / (_NUMERIC_SAMPLE_POINTS - 1)
        return [low + step * i for i in range(_NUMERIC_SAMPLE_POINTS)]
    return []


def check_hierarchy(
    hierarchy: Hierarchy, sample: Iterable[Any] | None = None
) -> list[Diagnostic]:
    """Validate one generalization hierarchy (``ART001``/``ART002``).

    Checks, over a domain sample (see :func:`domain_sample`):

    * **completeness** — every value generalizes at every level ``0..height``
      without error, is itself at level 0, and reaches the suppression token
      at the top (the chain-to-root requirement of full-domain recoding);
    * **monotonicity** — the partition induced at level ``l+1`` coarsens the
      one at level ``l``: values mapped together stay together.

    Every finding is an error the engine gate refuses to recode with.  A
    hierarchy with no discoverable domain gets only the height check.
    """
    out = DiagnosticCollector()
    where = {"path": f"hierarchy:{getattr(hierarchy, 'name', '?')}"}

    height = getattr(hierarchy, "height", None)
    if not isinstance(height, int) or height < 1:
        out.error(
            "ART001",
            f"hierarchy height must be a positive integer, got {height!r}",
            hint="a hierarchy needs at least the raw level and the suppression top",
            **where,
        )
        return out.findings

    chains: list[tuple[Any, ...]] = []
    for value in domain_sample(hierarchy, sample):
        try:
            chain = tuple(
                hierarchy.generalize(value, level) for level in range(height + 1)
            )
        except (HierarchyError, ValueError, KeyError, TypeError) as exc:
            out.error(
                "ART001",
                f"value {value!r} has no complete generalization chain: {exc}",
                hint="every domain value must generalize at all levels 0..height",
                **where,
            )
            continue
        chains.append(chain)
        if chain[0] != value:
            out.error(
                "ART001",
                f"generalize({value!r}, 0) returned {chain[0]!r}; "
                "level 0 must be the identity",
                hint="return the raw value at level 0",
                **where,
            )
        if chain[-1] != SUPPRESSED:
            out.error(
                "ART001",
                f"generalize({value!r}, {height}) returned {chain[-1]!r} "
                f"instead of the suppression token {SUPPRESSED!r}",
                hint="the top level must collapse the domain to '*'",
                **where,
            )

    # Monotonicity: between consecutive levels, a level-l token must map to
    # exactly one level-(l+1) token across the whole sample.
    for level in range(height):
        parent_of: dict[Any, Any] = {}
        for chain in chains:
            token, parent = chain[level], chain[level + 1]
            seen = parent_of.setdefault(token, parent)
            if seen != parent:
                out.error(
                    "ART002",
                    f"monotonicity broken between levels {level} and {level + 1}: "
                    f"token {token!r} generalizes to both {seen!r} and {parent!r}",
                    hint="values grouped at a level must stay grouped above it",
                    **where,
                )
    return out.findings


#: Manifest statuses the executor writes.
_RUN_STATUSES = {"running", "completed", "failed"}


def check_run_artifacts(run_dir: str | Path, label: str | None = None) -> list[Diagnostic]:
    """Validate a runtime run directory (``ART009``).

    A run directory (``repro study --run-dir``) holds ``manifest.json`` and
    ``events.jsonl`` (see :mod:`repro.runtime.events`).  Checks the manifest
    shape (status, task count vs task ids, tally consistency), every event
    against the executor's vocabulary, timestamp monotonicity, and that
    task-level events only reference tasks the manifest declares.  A stale
    ``running`` status is a warning — it marks an interrupted run that will
    resume from cache, not a broken artifact.
    """
    # Late import: repro.runtime imports the anonymization engine, which
    # gates through lint.api — importing it at module scope would cycle.
    from ..runtime.events import EVENT_KINDS, read_events, read_manifest

    out = DiagnosticCollector()
    run_path = Path(run_dir)
    where = {"path": label or f"run:{run_path}"}
    manifest_path = run_path / "manifest.json"
    if not manifest_path.exists():
        out.error(
            "ART009",
            f"run directory {run_path} has no manifest.json",
            hint="pass --run-dir to repro study, or point at a real run",
            **where,
        )
        return out.findings
    try:
        manifest = read_manifest(run_path)
    except (json.JSONDecodeError, OSError) as exc:
        out.error("ART009", f"manifest.json is unreadable: {exc}", **where)
        return out.findings

    status = manifest.get("status")
    if status not in _RUN_STATUSES:
        out.error(
            "ART009",
            f"manifest status {status!r} is not one of {sorted(_RUN_STATUSES)}",
            **where,
        )
    elif status == "running":
        out.warning(
            "ART009",
            "manifest still reports status 'running': the run was interrupted "
            "(it will resume from cache) or is in flight",
            **where,
        )
    task_ids = manifest.get("task_ids", [])
    tasks = manifest.get("tasks")
    if not isinstance(task_ids, list) or not all(isinstance(t, str) for t in task_ids):
        out.error("ART009", "manifest task_ids must be a list of strings", **where)
        task_ids = [t for t in task_ids if isinstance(t, str)] if isinstance(task_ids, list) else []
    if len(set(task_ids)) != len(task_ids):
        out.error("ART009", "manifest task_ids contain duplicates", **where)
    if tasks != len(task_ids):
        out.error(
            "ART009",
            f"manifest reports {tasks!r} tasks but lists {len(task_ids)} task ids",
            **where,
        )
    if status in {"completed", "failed"}:
        tallies = {
            key: manifest.get(key)
            for key in ("completed", "failed", "blocked", "cache_hits", "executed")
        }
        if all(isinstance(value, int) for value in tallies.values()):
            settled = tallies["completed"] + tallies["failed"] + tallies["blocked"]
            if settled != len(task_ids):
                out.error(
                    "ART009",
                    f"tallies do not cover the graph: completed+failed+blocked="
                    f"{settled} for {len(task_ids)} tasks",
                    **where,
                )
            if tallies["cache_hits"] + tallies["executed"] != tallies["completed"]:
                out.error(
                    "ART009",
                    f"cache_hits({tallies['cache_hits']}) + executed"
                    f"({tallies['executed']}) != completed({tallies['completed']})",
                    hint="every completed task is either a hit or was executed",
                    **where,
                )
        else:
            missing = sorted(k for k, v in tallies.items() if not isinstance(v, int))
            out.error(
                "ART009",
                f"finished manifest lacks integer tallies for {missing}",
                **where,
            )

    events = read_events(run_path / "events.jsonl")
    if not events:
        out.warning(
            "ART009",
            "events.jsonl is missing or empty; the run left no history",
            **where,
        )
        return out.findings
    known = set(task_ids)
    last_ts = None
    hit_events = 0
    for position, event in enumerate(events):
        kind = event.get("event")
        if kind not in EVENT_KINDS:
            out.error(
                "ART009",
                f"event #{position} has unknown kind {kind!r}",
                hint=f"executor vocabulary: {sorted(EVENT_KINDS)}",
                **where,
            )
        if kind == "cache-hit":
            hit_events += 1
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            out.error("ART009", f"event #{position} lacks a numeric ts", **where)
        elif last_ts is not None and ts < last_ts:
            out.error(
                "ART009",
                f"event #{position} goes back in time ({ts} < {last_ts}); "
                "the log is append-only",
                **where,
            )
        else:
            last_ts = ts
        task = event.get("task")
        if task is not None and known and task not in known:
            out.error(
                "ART009",
                f"event #{position} references task {task!r} the manifest "
                "does not declare",
                **where,
            )
    kinds = {event.get("event") for event in events}
    if "run-start" not in kinds:
        out.error("ART009", "event log has no run-start record", **where)
    if status in {"completed", "failed"} and "run-finish" not in kinds:
        out.error(
            "ART009",
            f"manifest is {status} but the event log has no run-finish record",
            **where,
        )
    if status in {"completed", "failed"} and isinstance(manifest.get("cache_hits"), int):
        if hit_events != manifest["cache_hits"]:
            out.error(
                "ART009",
                f"event log shows {hit_events} cache-hit event(s) but the "
                f"manifest tallies {manifest['cache_hits']}",
                **where,
            )
    return out.findings


def check_cache_store(root: str | Path, label: str | None = None) -> list[Diagnostic]:
    """Validate a content-addressed result store (``ART010``).

    Walks ``objects/<shard>/<digest>.pkl`` under ``root`` and checks that
    every entry lives in the shard matching its digest prefix, unpickles to
    the ``{"key", "value"}`` envelope, and that the stored key's recomputed
    digest equals the filename — a mismatch means the content address lies
    and memoization would return the wrong result.  Entries from another
    code epoch are warnings (dead weight, never returned as hits).
    """
    from ..runtime.task import CODE_EPOCH, CacheKey

    out = DiagnosticCollector()
    store_root = Path(root)
    where = {"path": label or f"cache:{store_root}"}
    objects = store_root / "objects"
    if not objects.exists():
        out.info(
            "ART010",
            f"cache store {store_root} has no objects/ directory (empty store)",
            **where,
        )
        return out.findings
    entries = 0
    for path in sorted(objects.rglob("*")):
        if path.is_dir():
            continue
        digest = path.stem
        if path.suffix != ".pkl" or len(digest) != 64 or any(
            c not in "0123456789abcdef" for c in digest
        ):
            out.warning(
                "ART010",
                f"stray file {path.relative_to(store_root)} is not a cache entry",
                hint="the store only holds objects/<2-hex>/<sha256>.pkl files",
                **where,
            )
            continue
        entries += 1
        if path.parent.name != digest[:2]:
            out.error(
                "ART010",
                f"entry {digest[:12]}… lives in shard {path.parent.name!r} "
                f"instead of {digest[:2]!r}",
                **where,
            )
        try:
            with path.open("rb") as handle:
                entry = pickle.load(handle)
        except Exception as exc:  # noqa: BLE001 — any unpickling failure is corruption
            out.error(
                "ART010",
                f"entry {digest[:12]}… does not unpickle: {exc}",
                hint="the runtime deletes corrupt entries on read; or clear() the store",
                **where,
            )
            continue
        if not isinstance(entry, dict) or "key" not in entry or "value" not in entry:
            out.error(
                "ART010",
                f"entry {digest[:12]}… is not a {{key, value}} envelope",
                **where,
            )
            continue
        try:
            key = CacheKey(**entry["key"])
        except TypeError as exc:
            out.error(
                "ART010",
                f"entry {digest[:12]}… has a malformed key: {exc}",
                **where,
            )
            continue
        if key.digest() != digest:
            out.error(
                "ART010",
                f"entry {digest[:12]}… fails content addressing: stored key "
                f"hashes to {key.digest()[:12]}…",
                hint="a lying address would memoize the wrong result",
                **where,
            )
        if key.epoch != CODE_EPOCH:
            out.warning(
                "ART010",
                f"entry {digest[:12]}… was written under code epoch "
                f"{key.epoch!r} (current: {CODE_EPOCH!r}) and can never hit",
                hint="clear the store or let eviction reclaim it",
                **where,
            )
    if entries == 0:
        out.info("ART010", "cache store holds no entries", **where)
    return out.findings


def _check_trace_payload(
    payload: Mapping[str, Any], out: DiagnosticCollector, where: Mapping[str, Any]
) -> None:
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        out.error("ART011", "trace file has no traceEvents list", **where)
        return
    span_ids: set[int] = set()
    parents: list[tuple[int, int]] = []
    last_ts = None
    for position, event in enumerate(events):
        if not isinstance(event, dict):
            out.error("ART011", f"trace event #{position} is not an object", **where)
            continue
        phase = event.get("ph")
        if phase not in {"X", "M"}:
            out.error(
                "ART011",
                f"trace event #{position} has phase {phase!r}; the exporter "
                "only emits complete ('X') and metadata ('M') events",
                **where,
            )
            continue
        if phase == "M":
            continue
        ts = event.get("ts")
        dur = event.get("dur")
        if not isinstance(ts, (int, float)) or ts < 0:
            out.error(
                "ART011",
                f"trace event #{position} lacks a non-negative numeric ts",
                **where,
            )
        elif last_ts is not None and ts < last_ts:
            out.error(
                "ART011",
                f"trace event #{position} goes back in time ({ts} < {last_ts}); "
                "the exporter sorts events by start",
                **where,
            )
        else:
            last_ts = ts
        if not isinstance(dur, (int, float)) or dur < 0:
            out.error(
                "ART011",
                f"trace event #{position} lacks a non-negative duration",
                **where,
            )
        name = event.get("name")
        if not isinstance(name, str) or not name:
            out.error("ART011", f"trace event #{position} has no name", **where)
        args = event.get("args", {})
        span_id = args.get("span") if isinstance(args, dict) else None
        if not isinstance(span_id, int):
            out.error(
                "ART011",
                f"trace event #{position} lacks an integer args.span id",
                hint="span/parent ids in args make the tree recoverable",
                **where,
            )
            continue
        if span_id in span_ids:
            out.error(
                "ART011",
                f"trace event #{position} reuses span id {span_id}",
                **where,
            )
        span_ids.add(span_id)
        parent = args.get("parent")
        if parent is not None:
            if not isinstance(parent, int):
                out.error(
                    "ART011",
                    f"trace event #{position} has a non-integer parent id",
                    **where,
                )
            else:
                parents.append((position, parent))
    for position, parent in parents:
        if parent not in span_ids:
            out.error(
                "ART011",
                f"trace event #{position} references parent span {parent} "
                "which the file does not contain",
                hint="the exporter drops parents outside the exported slice",
                **where,
            )
    if not span_ids:
        out.warning("ART011", "trace file contains no spans", **where)


#: Relative tolerance for the histogram sum-bounds check (float summation).
_HISTOGRAM_TOLERANCE = 1e-9


def _check_metrics_payload(
    payload: Mapping[str, Any], out: DiagnosticCollector, where: Mapping[str, Any]
) -> None:
    schema = payload.get("schema")
    if schema != "repro.obs/metrics@1":
        out.error(
            "ART011",
            f"metrics snapshot has schema {schema!r}; expected 'repro.obs/metrics@1'",
            **where,
        )
    counters = payload.get("counters", {})
    if not isinstance(counters, dict):
        out.error("ART011", "metrics counters must be an object", **where)
        counters = {}
    for name, value in counters.items():
        if not isinstance(value, (int, float)) or value < 0:
            out.error(
                "ART011",
                f"counter {name!r} must be a non-negative number, got {value!r}",
                hint="counters are monotone sums; a negative value means corruption",
                **where,
            )
    histograms = payload.get("histograms", {})
    if not isinstance(histograms, dict):
        out.error("ART011", "metrics histograms must be an object", **where)
        histograms = {}
    for name, stats in histograms.items():
        if not isinstance(stats, dict):
            out.error("ART011", f"histogram {name!r} is not an object", **where)
            continue
        count = stats.get("count")
        total = stats.get("sum")
        low = stats.get("min")
        high = stats.get("max")
        if not isinstance(count, int) or count < 1:
            out.error(
                "ART011",
                f"histogram {name!r} count must be a positive integer, got {count!r}",
                hint="empty histograms are omitted from snapshots",
                **where,
            )
            continue
        numeric = all(isinstance(v, (int, float)) for v in (total, low, high))
        if not numeric:
            out.error(
                "ART011",
                f"histogram {name!r} needs numeric sum/min/max",
                **where,
            )
            continue
        if low > high:
            out.error(
                "ART011",
                f"histogram {name!r} has min {low} > max {high}",
                **where,
            )
            continue
        slack = _HISTOGRAM_TOLERANCE * max(abs(total), count * max(abs(low), abs(high)), 1.0)
        if not (count * low - slack <= total <= count * high + slack):
            out.error(
                "ART011",
                f"histogram {name!r} sum {total} leaves the bounds implied by "
                f"count={count}, min={low}, max={high}",
                hint="count·min <= sum <= count·max must hold for any sample set",
                **where,
            )


def check_obs_artifacts(path: str | Path, label: str | None = None) -> list[Diagnostic]:
    """Validate an exported trace or metrics file (``ART011``).

    Dispatches on content: an object with a ``traceEvents`` list is checked
    as a Chrome-trace export (phases restricted to the exporter's ``X``/``M``
    vocabulary, monotone non-negative timestamps, non-negative durations,
    unique integer span ids, parent references resolvable within the file);
    an object carrying the ``repro.obs/metrics@1`` schema (or ``counters``/
    ``histograms`` keys) is checked as a metrics snapshot (non-negative
    counters, histogram ``count >= 1`` with ``count·min <= sum <= count·max``).
    Anything else is an error — the file is not an observability artifact.
    """
    out = DiagnosticCollector()
    file_path = Path(path)
    where = {"path": label or str(file_path)}
    try:
        with file_path.open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        out.error("ART011", f"{file_path} does not exist", **where)
        return out.findings
    except (json.JSONDecodeError, OSError) as exc:
        out.error("ART011", f"{file_path} is not readable JSON: {exc}", **where)
        return out.findings
    if not isinstance(payload, dict):
        out.error("ART011", "observability artifacts are JSON objects", **where)
        return out.findings
    if isinstance(payload.get("traceEvents"), list):
        _check_trace_payload(payload, out, where)
    elif payload.get("schema") == "repro.obs/metrics@1" or (
        "counters" in payload and "histograms" in payload
    ):
        _check_metrics_payload(payload, out, where)
    else:
        out.error(
            "ART011",
            f"{file_path} is neither a trace (no traceEvents) nor a metrics "
            "snapshot (no repro.obs/metrics@1 schema)",
            hint="point at the trace.json / metrics.json a traced run exported",
            **where,
        )
    return out.findings


#: Required fields of one benchmark case: (name, strictly_positive,
#: integral).  Counts (n, repeats) must be positive integers — a float
#: ``n`` would make scale-tier entries ambiguous; wall times are
#: non-negative numbers.
_BENCH_CASE_FIELDS = (
    ("n", True, True),
    ("repeats", True, True),
    ("p50_wall_s", False, False),
    ("p95_wall_s", False, False),
)

#: Cases at or above this many rows must name the kernel backend that
#: produced them — scale-tier timings are meaningless without knowing
#: whether the numpy kernels or the pure-python fallback ran the sweep.
_BENCH_KERNEL_FLOOR = 100_000

#: Schema id of benchmark trajectory files (``BENCH_*.json``).
BENCH_SCHEMA = "repro.bench/trajectory@1"


def check_bench_artifacts(path: str | Path, label: str | None = None) -> list[Diagnostic]:
    """Validate a committed benchmark trajectory file (``ART012``).

    A ``BENCH_<suite>.json`` file records wall-time percentiles over the
    repo's history so performance regressions are diffable in review.  The
    contract: the ``repro.bench/trajectory@1`` schema, a non-empty suite
    name, and a list of entries each carrying the git revision that
    produced it, a ``quick`` flag, and per-size cases with integral
    ``n``/``repeats``, ``p50_wall_s <= p95_wall_s`` and a true
    ``plane_equivalent`` flag (a recorded plane divergence is itself an
    error — the benchmark doubles as an equivalence witness).  Scale-tier
    cases (``n`` >= 100k) must additionally name the ``kernel`` backend
    that produced the timing.
    """
    out = DiagnosticCollector()
    file_path = Path(path)
    where = {"path": label or str(file_path)}
    try:
        with file_path.open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        out.error("ART012", f"{file_path} does not exist", **where)
        return out.findings
    except (json.JSONDecodeError, OSError) as exc:
        out.error("ART012", f"{file_path} is not readable JSON: {exc}", **where)
        return out.findings
    if not isinstance(payload, dict):
        out.error("ART012", "a benchmark trajectory is a JSON object", **where)
        return out.findings
    if payload.get("schema") != BENCH_SCHEMA:
        out.error(
            "ART012",
            f"schema is {payload.get('schema')!r}, expected {BENCH_SCHEMA!r}",
            **where,
        )
        return out.findings
    suite = payload.get("suite")
    if not isinstance(suite, str) or not suite:
        out.error("ART012", "suite must be a non-empty string", **where)
    entries = payload.get("entries")
    if not isinstance(entries, list) or not entries:
        out.error(
            "ART012",
            "entries must be a non-empty list (one entry per recorded run)",
            hint="regenerate with benchmarks/test_bench_recode.py --quick --bench-json",
            **where,
        )
        return out.findings
    for position, entry in enumerate(entries):
        tag = f"entries[{position}]"
        if not isinstance(entry, dict):
            out.error("ART012", f"{tag} must be an object", **where)
            continue
        git_rev = entry.get("git_rev")
        if not isinstance(git_rev, str) or not git_rev:
            out.error("ART012", f"{tag}.git_rev must be a non-empty string", **where)
        if not isinstance(entry.get("quick"), bool):
            out.error("ART012", f"{tag}.quick must be a boolean", **where)
        cases = entry.get("cases")
        if not isinstance(cases, list) or not cases:
            out.error("ART012", f"{tag}.cases must be a non-empty list", **where)
            continue
        for case_position, case in enumerate(cases):
            case_tag = f"{tag}.cases[{case_position}]"
            if not isinstance(case, dict):
                out.error("ART012", f"{case_tag} must be an object", **where)
                continue
            bad = False
            for field_name, strictly_positive, integral in _BENCH_CASE_FIELDS:
                value = case.get(field_name)
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    out.error(
                        "ART012",
                        f"{case_tag}.{field_name} must be a number",
                        **where,
                    )
                    bad = True
                elif integral and not isinstance(value, int):
                    out.error(
                        "ART012",
                        f"{case_tag}.{field_name} must be an integer, "
                        f"got {value!r}",
                        **where,
                    )
                    bad = True
                elif strictly_positive and value <= 0:
                    out.error(
                        "ART012",
                        f"{case_tag}.{field_name} must be positive, got {value}",
                        **where,
                    )
                    bad = True
                elif value < 0:
                    out.error(
                        "ART012",
                        f"{case_tag}.{field_name} must be non-negative, got {value}",
                        **where,
                    )
                    bad = True
            if not bad and case["p50_wall_s"] > case["p95_wall_s"]:
                out.error(
                    "ART012",
                    f"{case_tag} has p50_wall_s {case['p50_wall_s']} > "
                    f"p95_wall_s {case['p95_wall_s']}",
                    **where,
                )
            if case.get("plane_equivalent") is not True:
                out.error(
                    "ART012",
                    f"{case_tag}.plane_equivalent must be true; a recorded "
                    "plane divergence invalidates the trajectory",
                    hint="investigate the row/columnar divergence before committing",
                    **where,
                )
            if not bad and case["n"] >= _BENCH_KERNEL_FLOOR:
                kernel = case.get("kernel")
                if not isinstance(kernel, str) or not kernel:
                    out.error(
                        "ART012",
                        f"{case_tag} has n={case['n']} (scale tier) but "
                        "does not name the kernel backend",
                        hint='add "kernel": "numpy" or "python" to the case',
                        **where,
                    )
    return out.findings


#: Artifact rule ids -> one-line descriptions, for ``--select`` validation
#: (artifact rules live outside the AST-rule registry in :mod:`.engine`).
ARTIFACT_RULES: dict[str, str] = {
    "ART001": "hierarchy completeness (chain to the root)",
    "ART002": "hierarchy monotonicity (levels must coarsen)",
    "ART009": "runtime run-log contract (manifest + events)",
    "ART010": "content-addressed cache store integrity",
    "ART011": "observability artifact contract (trace + metrics files)",
    "ART012": "benchmark trajectory contract (every BENCH_*.json file)",
}
