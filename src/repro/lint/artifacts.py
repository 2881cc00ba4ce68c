"""Layer 1 — static validation of anonymization artifacts.

These checkers inspect the *objects* a comparison run is configured with —
generalization hierarchies, the full-domain lattice, privacy-model
parameters, quality indices, r-property profiles and property vectors —
without anonymizing anything.  A malformed hierarchy or an out-of-range
privacy parameter invalidates every property vector and every ▶-better
verdict computed downstream (Theorem 1 presumes per-tuple properties are
measured correctly), so the engine refuses to recode with artifacts that
fail these checks.

Rule ids
--------
========  ====================================================
``ART001``  hierarchy completeness (chain to the root)
``ART002``  hierarchy monotonicity (levels must coarsen)
``ART003``  hierarchy loss contract (0 at raw, 1 at top, monotone)
``ART004``  lattice well-formedness
``ART005``  privacy-parameter sanity
``ART006``  unary quality-index contract (Definition 3)
``ART007``  r-property profile contract (Definition 2)
``ART008``  property-vector length (Definition 1)
``ART009``  runtime run-log contract (manifest + events)
``ART010``  content-addressed cache store integrity
``ART011``  observability artifact contract (trace + metrics files)
``ART012``  benchmark trajectory contract (``BENCH_*.json`` files)
``ART013``  serve benchmark contract (``BENCH_serve.json`` documents)
========  ====================================================
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from ..hierarchy.base import SUPPRESSED, Hierarchy, HierarchyError
from ..hierarchy.lattice import Lattice
from .diagnostics import Diagnostic, DiagnosticCollector

#: Cap on the lattice size for the exhaustive reachability walk.
_REACHABILITY_LIMIT = 50_000

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
    hierarchy: Hierarchy,
    sample: Iterable[Any] | None = None,
    label: str | None = None,
) -> list[Diagnostic]:
    """Validate one generalization hierarchy (``ART001``–``ART003``).

    Checks, over a domain sample (see :func:`domain_sample`):

    * **completeness** — every value generalizes at every level ``0..height``
      without error, is itself at level 0, and reaches the suppression token
      at the top (the chain-to-root requirement of full-domain recoding);
    * **monotonicity** — the partition induced at level ``l+1`` coarsens the
      one at level ``l``: values mapped together stay together.  A level
      that coarsens nothing at all is reported as a warning;
    * **loss contract** — ``loss`` is within ``[0, 1]``, 0 at level 0,
      1 at the top, and non-decreasing along the chain.
    """
    out = DiagnosticCollector()
    where = {"path": label or f"hierarchy:{getattr(hierarchy, 'name', '?')}"}

    height = getattr(hierarchy, "height", None)
    if not isinstance(height, int) or height < 1:
        out.error(
            "ART001",
            f"hierarchy height must be a positive integer, got {height!r}",
            hint="a hierarchy needs at least the raw level and the suppression top",
            **where,
        )
        return out.findings

    values = domain_sample(hierarchy, sample)
    if not values:
        out.info(
            "ART001",
            "no domain sample available; value-level checks skipped",
            hint="pass sample= with representative domain values",
            **where,
        )
        return out.findings

    chains: dict[int, tuple[Any, ...]] = {}
    for position, value in enumerate(values):
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
        chains[position] = chain
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
        coarsened = False
        for chain in chains.values():
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
            if token != parent:
                coarsened = True
        if chains and not coarsened:
            out.warning(
                "ART002",
                f"level {level + 1} coarsens nothing over level {level}",
                hint="drop the redundant level or merge it with its neighbor",
                **where,
            )

    for position, value in enumerate(values):
        if position not in chains:
            continue
        try:
            losses = [hierarchy.loss(value, level) for level in range(height + 1)]
        except (HierarchyError, ValueError, KeyError, TypeError) as exc:
            out.error(
                "ART003",
                f"loss of value {value!r} is not computable at all levels: {exc}",
                hint="loss(value, level) must accept every level 0..height",
                **where,
            )
            continue
        if any(not 0.0 <= loss <= 1.0 for loss in losses):
            out.error(
                "ART003",
                f"loss of value {value!r} leaves [0, 1]: {losses}",
                hint="normalize the loss metric to the unit interval",
                **where,
            )
        if losses and losses[0] != 0.0:
            out.error(
                "ART003",
                f"loss({value!r}, 0) = {losses[0]}; raw values must cost 0",
                **where,
            )
        if losses and losses[-1] != 1.0:
            out.error(
                "ART003",
                f"loss({value!r}, {height}) = {losses[-1]}; suppression must cost 1",
                **where,
            )
        if any(b < a for a, b in zip(losses, losses[1:])):
            out.error(
                "ART003",
                f"loss of value {value!r} decreases along the chain: {losses}",
                hint="generalizing further can never recover information",
                **where,
            )
    return out.findings


def check_hierarchies(
    hierarchies: Mapping[str, Hierarchy],
    samples: Mapping[str, Iterable[Any]] | None = None,
) -> list[Diagnostic]:
    """Validate a per-attribute hierarchy mapping (``ART001``–``ART003``).

    Also reports a mapping whose key disagrees with the hierarchy's own
    ``name`` — a config-splicing smell that silently recodes the wrong
    attribute.
    """
    out = DiagnosticCollector()
    for attribute, hierarchy in hierarchies.items():
        label = f"hierarchy:{attribute}"
        name = getattr(hierarchy, "name", attribute)
        if name != attribute:
            out.warning(
                "ART001",
                f"mapping key {attribute!r} does not match hierarchy name {name!r}",
                hint="keep the mapping key and Hierarchy.name in sync",
                path=label,
            )
        sample = None if samples is None else samples.get(attribute)
        out.extend(check_hierarchy(hierarchy, sample=sample, label=label))
    return out.findings


def check_lattice(lattice: Lattice, label: str = "lattice") -> list[Diagnostic]:
    """Validate a full-domain generalization lattice (``ART004``).

    Checks height consistency against the per-attribute DGH depths, the
    node count against the product of ``height + 1``, the bottom/top
    elements, and — for lattices up to a size cap — that every node is
    reachable from the bottom through immediate generalizations.
    """
    out = DiagnosticCollector()
    where = {"path": label}

    hierarchies = tuple(getattr(lattice, "hierarchies", ()))
    heights = tuple(getattr(lattice, "heights", ()))
    if len(hierarchies) != len(heights):
        out.error(
            "ART004",
            f"lattice has {len(hierarchies)} hierarchies but "
            f"{len(heights)} heights",
            **where,
        )
        return out.findings
    for hierarchy, height in zip(hierarchies, heights):
        if hierarchy.height != height:
            out.error(
                "ART004",
                f"lattice height {height} disagrees with DGH depth "
                f"{hierarchy.height} of hierarchy {hierarchy.name!r}",
                hint="rebuild the lattice after changing a hierarchy",
                **where,
            )
    expected_size = 1
    for height in heights:
        expected_size *= height + 1
    actual_size = len(lattice)
    if actual_size != expected_size:
        out.error(
            "ART004",
            f"lattice reports {actual_size} nodes; the heights imply "
            f"{expected_size}",
            **where,
        )
    bottom = lattice.bottom
    top = lattice.top
    if bottom != (0,) * len(heights):
        out.error("ART004", f"lattice bottom {bottom!r} is not the all-raw node", **where)
    if top != heights:
        out.error(
            "ART004",
            f"lattice top {top!r} disagrees with the heights {heights!r}",
            **where,
        )
    if lattice.max_height != sum(heights):
        out.error(
            "ART004",
            f"lattice max height {lattice.max_height} is not the height sum "
            f"{sum(heights)}",
            **where,
        )

    if expected_size > _REACHABILITY_LIMIT:
        out.info(
            "ART004",
            f"lattice has {expected_size} nodes; reachability walk skipped "
            f"(limit {_REACHABILITY_LIMIT})",
            **where,
        )
        return out.findings
    seen = {bottom}
    frontier = [bottom]
    while frontier:
        node = frontier.pop()
        for successor in lattice.successors(node):
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    if len(seen) != actual_size:
        out.error(
            "ART004",
            f"only {len(seen)} of {actual_size} nodes are reachable from the "
            "bottom via immediate generalizations",
            hint="successors() must raise every attribute one level at a time",
            **where,
        )
    return out.findings


def _distinct_count(values: Iterable[Any] | None) -> int | None:
    if values is None:
        return None
    return len(set(values))


def check_privacy_parameters(
    models: Iterable[Any],
    rows: int | None = None,
    sensitive_values: Iterable[Any] | None = None,
) -> list[Diagnostic]:
    """Validate privacy-model parameters against the workload (``ART005``).

    Duck-typed over the parameter attributes the models expose:

    * ``k`` — must satisfy ``1 <= k <= N`` (a k above the table size can
      only be met by total suppression);
    * ``l`` — must satisfy ``l >= 1`` and ``l <=`` the number of distinct
      sensitive values (``l == 1`` is flagged as vacuous);
    * ``t`` — must lie in ``[0, 1]``;
    * ``p`` — must satisfy ``1 <= p <= min(k, distinct sensitive values)``
      (a class of k tuples cannot hold more than k distinct values);
    * ``c`` — recursive-(c, l) constant, must be positive.
    """
    out = DiagnosticCollector()
    distinct = _distinct_count(sensitive_values)
    for model in models:
        label = f"privacy:{getattr(model, 'name', type(model).__name__)}"
        where = {"path": label}
        k = getattr(model, "k", None)
        l = getattr(model, "l", None)
        t = getattr(model, "t", None)
        p = getattr(model, "p", None)
        c = getattr(model, "c", None)
        if k is not None:
            if not isinstance(k, int) or k < 1:
                out.error("ART005", f"k must be a positive integer, got {k!r}", **where)
            elif rows is not None and k > rows:
                out.error(
                    "ART005",
                    f"k={k} exceeds the table size N={rows}",
                    hint="no release can satisfy k > N without suppressing everything",
                    **where,
                )
        if l is not None:
            if l < 1:
                out.error("ART005", f"l must be at least 1, got {l!r}", **where)
            elif l == 1:
                out.warning(
                    "ART005",
                    "l=1 is vacuous: every class trivially has one sensitive value",
                    **where,
                )
            if distinct is not None and l > distinct:
                out.error(
                    "ART005",
                    f"l={l} exceeds the {distinct} distinct sensitive values",
                    hint="no class can contain more distinct values than the domain has",
                    **where,
                )
        if t is not None and not 0.0 <= float(t) <= 1.0:
            out.error("ART005", f"t must lie in [0, 1], got {t!r}", **where)
        if p is not None:
            if not isinstance(p, int) or p < 1:
                out.error("ART005", f"p must be a positive integer, got {p!r}", **where)
            else:
                if isinstance(k, int) and p > k:
                    out.error(
                        "ART005",
                        f"p={p} exceeds k={k}: a class of k tuples cannot "
                        f"contain {p} distinct sensitive values",
                        **where,
                    )
                if distinct is not None and p > distinct:
                    out.error(
                        "ART005",
                        f"p={p} exceeds the {distinct} distinct sensitive values",
                        **where,
                    )
        if c is not None and not c > 0:
            out.error("ART005", f"recursive-(c, l) constant must be positive, got {c!r}", **where)
    return out.findings


def check_unary_index(index: Any, label: str | None = None) -> list[Diagnostic]:
    """Validate a unary quality index against Definition 3 (``ART006``).

    The contract is structural: a non-empty ``name``, a boolean
    ``larger_is_better`` orientation, and callable ``value`` / ``prefers``
    members.
    """
    out = DiagnosticCollector()
    where = {"path": label or f"index:{getattr(index, 'name', type(index).__name__)}"}
    name = getattr(index, "name", None)
    if not isinstance(name, str) or not name:
        out.error(
            "ART006",
            f"unary index {type(index).__name__} lacks a non-empty name",
            hint="set the class attribute `name`",
            **where,
        )
    orientation = getattr(index, "larger_is_better", None)
    if not isinstance(orientation, bool):
        out.error(
            "ART006",
            f"unary index {type(index).__name__} must declare boolean "
            f"larger_is_better, got {orientation!r}",
            hint="comparators cannot orient an index without it",
            **where,
        )
    for member in ("value", "prefers"):
        if not callable(getattr(index, member, None)):
            out.error(
                "ART006",
                f"unary index {type(index).__name__} lacks callable {member}()",
                **where,
            )
    return out.findings


def check_index_registry(registry: Mapping[str, Any]) -> list[Diagnostic]:
    """Validate a name->index registry (``ART006``).

    Each entry must satisfy :func:`check_unary_index`; a key that differs
    from the index's own ``name`` is reported, since lookups and reports
    would then disagree about what was measured.
    """
    out = DiagnosticCollector()
    for key, index in registry.items():
        label = f"index:{key}"
        out.extend(check_unary_index(index, label=label))
        name = getattr(index, "name", None)
        if isinstance(name, str) and name and name != key:
            out.warning(
                "ART006",
                f"registry key {key!r} does not match index name {name!r}",
                hint="register indices under their own name",
                path=label,
            )
    return out.findings


def check_profile(
    profile: Any,
    declared_properties: Iterable[str] | None = None,
    label: str = "profile",
) -> list[Diagnostic]:
    """Validate an r-property profile against Definition 2 (``ART007``).

    The profile must expose at least one property name; when the study
    declares its property universe, every profile property must be a member
    of it — an undeclared property means the Υ sets would silently carry a
    vector no comparator was configured for.
    """
    out = DiagnosticCollector()
    where = {"path": label}
    names = tuple(getattr(profile, "names", ()))
    r = getattr(profile, "r", len(names))
    if r < 1 or not names:
        out.error(
            "ART007",
            "r-property profile must declare at least one property",
            **where,
        )
        return out.findings
    if len(set(names)) != len(names):
        out.error(
            "ART007",
            f"profile property names are not unique: {list(names)}",
            **where,
        )
    if r != len(names):
        out.error(
            "ART007",
            f"profile reports r={r} but declares {len(names)} properties",
            **where,
        )
    if declared_properties is not None:
        declared = set(declared_properties)
        unknown = [name for name in names if name not in declared]
        if unknown:
            out.error(
                "ART007",
                f"profile references undeclared properties {unknown}; "
                f"declared: {sorted(declared)}",
                hint="declare every property the r-property set references",
                **where,
            )
    return out.findings


def check_property_vectors(
    vectors: Sequence[Any],
    rows: int,
    label: str = "vectors",
) -> list[Diagnostic]:
    """Validate property vectors against Definition 1 (``ART008``).

    Every vector must have exactly one measurement per tuple of the data
    set (length N); a mixed-orientation family is reported as a warning
    because comparators require explicit negation first.
    """
    out = DiagnosticCollector()
    where = {"path": label}
    orientations = set()
    for position, vector in enumerate(vectors):
        size = len(vector)
        if size != rows:
            out.error(
                "ART008",
                f"property vector #{position} ({getattr(vector, 'name', '?')!r}) "
                f"has {size} measurements for a data set of {rows} tuples",
                hint="property vectors are N-dimensional by Definition 1",
                **where,
            )
        orientations.add(getattr(vector, "higher_is_better", True))
    if len(orientations) > 1:
        out.warning(
            "ART008",
            "vectors mix orientations; negate the lower-is-better ones "
            "before comparing",
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


#: Schema id of serve benchmark documents (``BENCH_serve.json``).
SERVE_BENCH_SCHEMA = "repro.bench/serve@1"

#: Per-endpoint latency percentile fields, in non-decreasing order.
_SERVE_PERCENTILE_FIELDS = ("p50_ms", "p95_ms", "p99_ms")


def check_serve_bench_artifacts(
    path: str | Path, label: str | None = None
) -> list[Diagnostic]:
    """Validate a serve benchmark document (``ART013``).

    ``BENCH_serve.json`` is the flat single-run record ``repro bench
    serve`` writes: the ``repro.bench/serve@1`` schema, the concurrent
    client count, run-level ``throughput_rps > 0``, the producing
    ``git_rev``, and one latency block per exercised endpoint with
    ``p50_ms <= p95_ms <= p99_ms``.  Unlike the ART012 trajectories it is
    a snapshot, not an append-only history — every bench run replaces it.
    """
    out = DiagnosticCollector()
    file_path = Path(path)
    where = {"path": label or str(file_path)}
    try:
        with file_path.open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        out.error("ART013", f"{file_path} does not exist", **where)
        return out.findings
    except (json.JSONDecodeError, OSError) as exc:
        out.error("ART013", f"{file_path} is not readable JSON: {exc}", **where)
        return out.findings
    if not isinstance(payload, dict):
        out.error("ART013", "a serve benchmark document is a JSON object", **where)
        return out.findings
    if payload.get("schema") != SERVE_BENCH_SCHEMA:
        out.error(
            "ART013",
            f"schema is {payload.get('schema')!r}, expected {SERVE_BENCH_SCHEMA!r}",
            **where,
        )
        return out.findings
    git_rev = payload.get("git_rev")
    if not isinstance(git_rev, str) or not git_rev:
        out.error("ART013", "git_rev must be a non-empty string", **where)
    clients = payload.get("clients")
    if isinstance(clients, bool) or not isinstance(clients, int) or clients < 1:
        out.error(
            "ART013",
            f"clients must be a positive integer, got {clients!r}",
            **where,
        )
    throughput = payload.get("throughput_rps")
    if (
        isinstance(throughput, bool)
        or not isinstance(throughput, (int, float))
        or throughput <= 0
    ):
        out.error(
            "ART013",
            f"throughput_rps must be a positive number, got {throughput!r}",
            hint="a zero-throughput run recorded no completed requests",
            **where,
        )
    endpoints = payload.get("endpoints")
    if not isinstance(endpoints, dict) or not endpoints:
        out.error(
            "ART013",
            "endpoints must be a non-empty object "
            "(one latency block per exercised endpoint)",
            hint="regenerate with `repro bench serve`",
            **where,
        )
        return out.findings
    for endpoint in sorted(endpoints):
        block = endpoints[endpoint]
        tag = f"endpoints[{endpoint}]"
        if not isinstance(block, dict):
            out.error("ART013", f"{tag} must be an object", **where)
            continue
        requests = block.get("requests")
        if (
            isinstance(requests, bool)
            or not isinstance(requests, int)
            or requests < 1
        ):
            out.error(
                "ART013",
                f"{tag}.requests must be a positive integer, got {requests!r}",
                **where,
            )
        bad = False
        for field_name in _SERVE_PERCENTILE_FIELDS:
            value = block.get(field_name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                out.error(
                    "ART013", f"{tag}.{field_name} must be a number", **where
                )
                bad = True
            elif value < 0:
                out.error(
                    "ART013",
                    f"{tag}.{field_name} must be non-negative, got {value}",
                    **where,
                )
                bad = True
        if not bad:
            ordered = [block[name] for name in _SERVE_PERCENTILE_FIELDS]
            if not (ordered[0] <= ordered[1] <= ordered[2]):
                out.error(
                    "ART013",
                    f"{tag} percentiles must be non-decreasing "
                    f"(p50 <= p95 <= p99), got {ordered}",
                    **where,
                )
    return out.findings


#: Artifact rule ids -> one-line descriptions, for ``--select`` validation
#: (artifact rules live outside the AST-rule registry in :mod:`.engine`).
ARTIFACT_RULES: dict[str, str] = {
    "ART001": "hierarchy completeness (chain to the root)",
    "ART002": "hierarchy monotonicity (levels must coarsen)",
    "ART003": "hierarchy loss contract (0 at raw, 1 at top, monotone)",
    "ART004": "lattice well-formedness",
    "ART005": "privacy-parameter sanity",
    "ART006": "unary quality-index contract (Definition 3)",
    "ART007": "r-property profile contract (Definition 2)",
    "ART008": "property-vector length (Definition 1)",
    "ART009": "runtime run-log contract (manifest + events)",
    "ART010": "content-addressed cache store integrity",
    "ART011": "observability artifact contract (trace + metrics files)",
    "ART012": "benchmark trajectory contract (BENCH_*.json files)",
    "ART013": "serve benchmark contract (BENCH_serve.json documents)",
}
