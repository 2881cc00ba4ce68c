"""Task specifications and the study DAG.

A study is a directed acyclic graph of :class:`TaskSpec` nodes.  Each task
names an *operation* from the process-safe registry (operations are resolved
by name, so a spec is picklable and can cross a worker-process boundary),
carries a JSON-able parameter mapping, and optionally a :class:`CacheKey`
under which its result is memoized by the content-addressed store.

Seed propagation is split off the study seed with :func:`derive_seed` — a
``hashlib``-based splitter (no ``numpy``, no global RNG state) so a task's
seed depends only on ``(study seed, task id)``, never on scheduling order.
Parallel runs are therefore bit-identical to serial runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

#: Bumped whenever the semantics of an operation change in a way that
#: invalidates previously cached results.  Part of every cache key.
#: "2": measurement moved to the columnar plane (interned codes, level
#: tables, incremental partitions) — outputs are pinned bit-identical to
#: the row plane, but row-plane-era cache entries must not satisfy
#: columnar-era lookups.
#: "3": generators rebuilt on the counter PRNG (byte-identical with and
#: without numpy) and stochastic algorithms moved to ``random.Random`` —
#: datasets and seeded algorithm outputs changed, so epoch-2 cache
#: entries must not satisfy epoch-3 lookups.
#: "4": property vectors store an ``array('d')`` instead of a numpy array,
#: so cached vectors changed pickle layout.
#: "5": a cached release is the original's fingerprint plus its recoding
#: (level gathers or distinct local rows), not two pickled row tables.
#: "6": the columnar plane interns exactly, so a full-domain release of a
#: column holding equal values of other types (``7`` beside ``7.0``)
#: releases each row's own cell; cached releases of such columns were
#: wrong.
CODE_EPOCH = "6"


class TaskError(ValueError):
    """Raised for malformed task specs or graphs."""


def canonical_json(payload: Any) -> str:
    """Deterministic JSON used for cache-key digests.

    Keys are sorted and separators fixed so the same logical payload always
    produces the same byte string regardless of dict construction order.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def derive_seed(study_seed: int, task_id: str) -> int:
    """Split a per-task seed off the study seed.

    Pure ``hashlib`` (sha256 over ``"<study seed>:<task id>"``), so the
    result is deterministic across processes and independent of execution
    order — the property that makes parallel runs bit-identical to serial
    ones.  Returns a non-negative 63-bit integer, valid for both
    ``random.seed`` and ``numpy.random.default_rng``.
    """
    digest = hashlib.sha256(f"{study_seed}:{task_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class CacheKey:
    """The content address of one task result.

    The four components the runtime keys results by: the dataset
    fingerprint (:meth:`repro.datasets.dataset.Dataset.fingerprint`), the
    algorithm name + canonical parameters, the metric id (empty for
    anonymization tasks) and the code epoch.
    """

    dataset: str
    algorithm: str
    metric: str = ""
    epoch: str = CODE_EPOCH

    def digest(self) -> str:
        """The sha256 content address of this key."""
        payload = canonical_json(
            {
                "dataset": self.dataset,
                "algorithm": self.algorithm,
                "metric": self.metric,
                "epoch": self.epoch,
            }
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- operation registry ------------------------------------------------------

#: name -> callable.  Operations run as ``fn(params, deps, seed)`` where
#: ``deps`` maps dependency task id to the dependency's result value.
_OPERATIONS: dict[str, Callable[[Mapping[str, Any], Mapping[str, Any], int], Any]] = {}


def register_op(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register an operation under ``name`` (decorator).

    Re-registering a name replaces the previous operation — convenient for
    tests.
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        _OPERATIONS[name] = fn
        return fn

    return decorate


def resolve_op(name: str) -> Callable[[Mapping[str, Any], Mapping[str, Any], int], Any]:
    """The operation registered under ``name``."""
    try:
        return _OPERATIONS[name]
    except KeyError:
        raise TaskError(f"unknown operation {name!r}") from None


@dataclass(frozen=True)
class TaskSpec:
    """One node of a study DAG.

    Parameters
    ----------
    task_id:
        Unique, stable identifier within the graph.
    op:
        Name of a registered operation (see :func:`register_op`).
    params:
        Operation parameters.  Must be picklable; JSON-able whenever the
        task may run in a worker process.
    deps:
        Ids of tasks whose results this task consumes.
    key:
        Content-address for memoization; ``None`` disables caching.
    timeout:
        Per-attempt wall-clock limit in seconds (enforced in parallel
        mode); ``None`` means unlimited.
    retries:
        How many times a failed or timed-out attempt is retried.
    """

    task_id: str
    op: str
    params: Mapping[str, Any] = field(default_factory=dict)
    deps: tuple[str, ...] = ()
    key: CacheKey | None = None
    timeout: float | None = None
    retries: int = 0

    def __post_init__(self) -> None:
        if not self.task_id:
            raise TaskError("task_id must be non-empty")
        if self.retries < 0:
            raise TaskError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise TaskError(f"timeout must be positive, got {self.timeout}")


class TaskGraph:
    """An insertion-ordered DAG of :class:`TaskSpec` nodes.

    Tasks must be added after all of their dependencies, which makes cycles
    unrepresentable and gives :meth:`__iter__` a valid topological order
    for free.
    """

    def __init__(self) -> None:
        self._tasks: dict[str, TaskSpec] = {}

    def add(self, spec: TaskSpec) -> TaskSpec:
        """Add one task; its dependencies must already be present."""
        if spec.task_id in self._tasks:
            raise TaskError(f"duplicate task id {spec.task_id!r}")
        missing = [dep for dep in spec.deps if dep not in self._tasks]
        if missing:
            raise TaskError(
                f"task {spec.task_id!r} depends on unknown tasks {missing}; "
                "add dependencies first (cycles are unrepresentable)"
            )
        # Resolve eagerly so an unregistered operation fails at build time,
        # not halfway through a grid.
        resolve_op(spec.op)
        self._tasks[spec.task_id] = spec
        return spec

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[TaskSpec]:
        return iter(self._tasks.values())

    def __contains__(self, task_id: object) -> bool:
        return task_id in self._tasks

    def task(self, task_id: str) -> TaskSpec:
        """The spec with the given id."""
        try:
            return self._tasks[task_id]
        except KeyError:
            raise TaskError(f"unknown task {task_id!r}") from None

    @property
    def task_ids(self) -> tuple[str, ...]:
        """All task ids, in topological (insertion) order."""
        return tuple(self._tasks)

    def dependents(self, task_id: str) -> tuple[str, ...]:
        """Ids of tasks that consume ``task_id``'s result (direct only)."""
        return tuple(
            spec.task_id for spec in self._tasks.values() if task_id in spec.deps
        )

    def ready(self, completed: set[str], excluded: set[str]) -> list[TaskSpec]:
        """Tasks whose dependencies are all completed, in insertion order.

        ``excluded`` holds ids that must not be scheduled (already running,
        finished, or transitively blocked by a failure).
        """
        return [
            spec
            for spec in self._tasks.values()
            if spec.task_id not in completed
            and spec.task_id not in excluded
            and all(dep in completed for dep in spec.deps)
        ]
