"""High-level study builder: algorithm × parameter × dataset grids.

A *study* is the paper's experimental unit: run a family of disclosure
control algorithms over a workload, induce property vectors on every
release, and compare them pairwise (Sections 4–5).  This module turns a
declarative :class:`StudySpec` into a task DAG — one ``anonymize`` task per
grid cell, ``measure`` tasks per (cell, metric), and ``compare`` tasks per
property — and runs it on the :class:`~repro.runtime.executor.StudyExecutor`
with content-addressed memoization.

Everything is referenced by *name* through registries (dataset providers,
algorithm factories, scalar measures, vector properties), so task specs stay
picklable and JSON-able: exactly what the cache keys and worker processes
need.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from typing import Any, Callable, Mapping, Sequence

from ..anonymize.algorithms import (
    BottomUpGeneralization,
    Datafly,
    GeneticAnonymizer,
    Incognito,
    KMemberClustering,
    Mondrian,
    MuArgus,
    OptimalLattice,
    RandomRecoding,
    Samarati,
    TopDownSpecialization,
)
from ..anonymize.engine import Anonymization
from ..core import properties as props
from ..core.indices.unary import GiniIndex
from ..datasets.adult import adult_dataset, adult_hierarchies
from ..datasets.dataset import Dataset
from ..datasets.hospital import hospital_dataset, hospital_hierarchies
from ..hierarchy.base import Hierarchy
from ..utility.discernibility import discernibility
from ..utility.loss_metric import general_loss
from .cache import ResultCache
from .events import RunLog
from .executor import ExecutionReport, StudyExecutor
from .task import CacheKey, TaskGraph, TaskSpec, canonical_json, derive_seed, register_op


class StudyError(ValueError):
    """Raised for malformed study specifications."""


# -- registries --------------------------------------------------------------

#: provider name -> builder(**params) returning (dataset, hierarchies).
DATASET_PROVIDERS: dict[str, Callable[..., tuple[Dataset, dict[str, Hierarchy]]]] = {
    "adult": lambda rows=500, seed=42: (
        adult_dataset(rows, seed=seed),
        adult_hierarchies(),
    ),
    "hospital": lambda rows=500, seed=0: (
        hospital_dataset(rows, seed=seed),
        hospital_hierarchies(),
    ),
}

#: algorithm name -> Anonymizer factory (constructor kwargs = spec params).
ALGORITHM_FACTORIES: dict[str, Callable[..., Any]] = {
    "datafly": Datafly,
    "samarati": Samarati,
    "mondrian": Mondrian,
    "optimal": OptimalLattice,
    "muargus": MuArgus,
    "incognito": Incognito,
    "topdown": TopDownSpecialization,
    "bottomup": BottomUpGeneralization,
    "clustering": KMemberClustering,
    "genetic": GeneticAnonymizer,
    "random-recoding": RandomRecoding,
}

_GINI = GiniIndex()

#: scalar measure id -> fn(release, hierarchies) -> float.  The ids match
#: the columns of :func:`repro.analysis.sweep.default_measures`.
SCALAR_MEASURES: dict[str, Callable[[Anonymization, Mapping[str, Hierarchy]], float]] = {
    "k_achieved": lambda release, _h: float(release.k()),
    "suppressed": lambda release, _h: float(len(release.suppressed)),
    "class_gini": lambda release, _h: _GINI.value(
        props.equivalence_class_size(release)
    ),
    "lm": lambda release, hierarchies: general_loss(release, hierarchies),
    "dm": lambda release, _h: float(discernibility(release)),
}

#: vector property id -> fn(release, hierarchies) -> PropertyVector.
VECTOR_PROPERTIES: dict[str, Callable[[Anonymization, Mapping[str, Hierarchy]], Any]] = {
    "equivalence-class-size": lambda release, _h: props.equivalence_class_size(release),
    "breach-probability": lambda release, _h: props.breach_probability(release),
    "sensitive-value-count": lambda release, _h: props.sensitive_value_count(release),
    "tuple-utility": lambda release, hierarchies: props.tuple_utility(
        release, hierarchies
    ),
    "discernibility-penalty": lambda release, _h: props.discernibility_penalty(release),
}


# -- specifications ----------------------------------------------------------

def _canonical_items(params: Mapping[str, Any]) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted(params.items()))


@dataclasses.dataclass(frozen=True)
class DatasetSpec:
    """A dataset named by provider + parameters (not by object identity)."""

    provider: str
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, provider: str, **params: Any) -> "DatasetSpec":
        """Build a spec from keyword parameters."""
        if provider not in DATASET_PROVIDERS:
            raise StudyError(
                f"unknown dataset provider {provider!r}; "
                f"choose from {sorted(DATASET_PROVIDERS)}"
            )
        return cls(provider, _canonical_items(params))

    def as_payload(self) -> dict[str, Any]:
        """The JSON-able task-parameter form of this spec."""
        return {"provider": self.provider, "params": dict(self.params)}

    def materialize(self) -> tuple[Dataset, dict[str, Hierarchy]]:
        """Build the dataset and its hierarchies."""
        return _materialize_dataset(self.provider, self.params)


@dataclasses.dataclass(frozen=True)
class AlgorithmSpec:
    """One grid cell: an algorithm name plus constructor parameters."""

    algorithm: str
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, algorithm: str, **params: Any) -> "AlgorithmSpec":
        """Build a spec from keyword parameters."""
        if algorithm not in ALGORITHM_FACTORIES:
            raise StudyError(
                f"unknown algorithm {algorithm!r}; "
                f"choose from {sorted(ALGORITHM_FACTORIES)}"
            )
        return cls(algorithm, _canonical_items(params))

    @property
    def label(self) -> str:
        """Human-readable cell label, e.g. ``datafly[k=5]``."""
        rendered = ",".join(f"{name}={value}" for name, value in self.params)
        return f"{self.algorithm}[{rendered}]" if rendered else self.algorithm

    def as_payload(self) -> dict[str, Any]:
        """The JSON-able task-parameter form of this spec."""
        return {"algorithm": self.algorithm, "params": dict(self.params)}

    def build(self) -> Any:
        """Construct the configured :class:`Anonymizer`."""
        factory = ALGORITHM_FACTORIES[self.algorithm]
        return factory(**dict(self.params))

    def with_seed(self, study_seed: int) -> "AlgorithmSpec":
        """Inject an explicit derived seed when the factory accepts one.

        Seeds become part of the spec (and therefore of the cache key)
        rather than being resolved implicitly at run time.
        """
        params = dict(self.params)
        if "seed" in params or not _accepts_seed(ALGORITHM_FACTORIES[self.algorithm]):
            return self
        params["seed"] = derive_seed(study_seed, f"algorithm:{self.label}")
        return AlgorithmSpec(self.algorithm, _canonical_items(params))


@functools.lru_cache(maxsize=None)
def _accepts_seed(factory: Callable[..., Any]) -> bool:
    """Whether ``factory`` takes a ``seed`` keyword (inspected once each)."""
    try:
        return "seed" in inspect.signature(factory).parameters
    except (TypeError, ValueError):
        return False


@dataclasses.dataclass(frozen=True)
class StudySpec:
    """A declarative study: dataset × algorithms × metrics.

    Parameters
    ----------
    dataset:
        The workload every algorithm anonymizes.
    algorithms:
        The grid cells, in report order.
    scalar_measures:
        Ids from :data:`SCALAR_MEASURES` evaluated per cell.
    vector_properties:
        Ids from :data:`VECTOR_PROPERTIES` inducing per-tuple property
        vectors per cell (Definition 1).
    compare:
        Whether to add pairwise ▶-dominance comparison tasks per property.
    seed:
        Study seed; per-task seeds are derived from it by ``hashlib``
        splitting.
    """

    dataset: DatasetSpec
    algorithms: tuple[AlgorithmSpec, ...]
    scalar_measures: tuple[str, ...] = ("k_achieved", "suppressed", "lm", "dm")
    vector_properties: tuple[str, ...] = ("equivalence-class-size",)
    compare: bool = True
    seed: int = 42

    def __post_init__(self) -> None:
        if not self.algorithms:
            raise StudyError("study requires at least one algorithm cell")
        unknown = [m for m in self.scalar_measures if m not in SCALAR_MEASURES]
        unknown += [p for p in self.vector_properties if p not in VECTOR_PROPERTIES]
        if unknown:
            raise StudyError(f"unknown measure/property ids: {unknown}")


# -- worker-side materialization ---------------------------------------------

#: Most distinct dataset specs one process keeps resident.  Studies and
#: benchmark workloads use one; a server sent a new ``seed`` per request
#: evicts the least recently used table instead of keeping every one.
DATASET_MEMO_SIZE = 4


@functools.lru_cache(maxsize=DATASET_MEMO_SIZE)
def _materialize_dataset(
    provider: str, params: tuple[tuple[str, Any], ...]
) -> tuple[Dataset, dict[str, Hierarchy]]:
    """Build (dataset, hierarchies), memoized per process.

    Workers regenerate the workload from its spec instead of receiving a
    pickled copy per task; providers are deterministic, so every process
    sees the identical table, and a rebuilt spec equals the evicted one.
    """
    try:
        builder = DATASET_PROVIDERS[provider]
    except KeyError:
        raise StudyError(f"unknown dataset provider {provider!r}") from None
    return builder(**dict(params))


def _dataset_from_payload(payload: Mapping[str, Any]) -> tuple[Dataset, dict[str, Hierarchy]]:
    return _materialize_dataset(
        payload["provider"], _canonical_items(payload["params"])
    )


# -- operations --------------------------------------------------------------

@register_op("anonymize")
def _op_anonymize(params: Mapping[str, Any], deps: Mapping[str, Any], seed: int) -> Anonymization:
    """Anonymize the spec'd dataset with the spec'd algorithm."""
    dataset, hierarchies = _dataset_from_payload(params["dataset"])
    spec = AlgorithmSpec(
        params["algorithm"]["algorithm"],
        _canonical_items(params["algorithm"]["params"]),
    )
    return spec.build().anonymize(dataset, hierarchies)


@register_op("measure")
def _op_measure(params: Mapping[str, Any], deps: Mapping[str, Any], seed: int) -> Any:
    """Evaluate one registered measure on an upstream release.

    The release may come from the store or a pool worker, unbound; it is
    bound here to this process's copy of the dataset.
    """
    dataset, hierarchies = _dataset_from_payload(params["dataset"])
    release = deps[params["release_task"]].bind(dataset)
    metric = params["metric"]
    if params["kind"] == "scalar":
        return SCALAR_MEASURES[metric](release, hierarchies)
    return VECTOR_PROPERTIES[metric](release, hierarchies)


@register_op("compare")
def _op_compare(params: Mapping[str, Any], deps: Mapping[str, Any], seed: int) -> dict[str, Any]:
    """Pairwise strict-dominance comparison of upstream property vectors."""
    # Late import: repro.analysis imports the runtime for its own
    # parallel paths; binding at call time keeps the layering acyclic.
    from ..analysis.matrix import relation_matrix_serial, win_counts

    labels: Mapping[str, str] = params["labels"]
    vectors = {labels[task_id]: deps[task_id] for task_id in params["order"]}
    matrix = relation_matrix_serial(vectors)
    return {
        "property": params["property"],
        "relations": {pair: relation for pair, relation in matrix.items()},
        "wins": win_counts(matrix),
    }


# -- graph construction ------------------------------------------------------

def algorithm_key(spec: AlgorithmSpec) -> str:
    """The ``algorithm`` component of a grid cell's cache keys."""
    return canonical_json(spec.as_payload())


def build_study(
    spec: StudySpec,
    dataset_fingerprint: str | None = None,
    timeout: float | None = None,
    retries: int = 0,
) -> TaskGraph:
    """Compile a study spec into its task DAG.

    ``dataset_fingerprint`` is the content identity used in cache keys; when
    omitted the dataset is materialized here once to compute it.  Every
    task id is stable across runs, so resume and memoization line up.
    """
    if dataset_fingerprint is None:
        dataset, _ = spec.dataset.materialize()
        dataset_fingerprint = dataset.fingerprint()
    graph = TaskGraph()
    dataset_payload = spec.dataset.as_payload()
    seeded = [cell.with_seed(spec.seed) for cell in spec.algorithms]

    seen_labels: dict[str, int] = {}
    cell_ids: list[str] = []
    for cell in seeded:
        count = seen_labels.get(cell.label, 0)
        seen_labels[cell.label] = count + 1
        suffix = f"#{count}" if count else ""
        cell_id = f"anonymize:{cell.label}{suffix}"
        cell_ids.append(cell_id)
        graph.add(
            TaskSpec(
                task_id=cell_id,
                op="anonymize",
                params={"dataset": dataset_payload, "algorithm": cell.as_payload()},
                key=CacheKey(
                    dataset=dataset_fingerprint, algorithm=algorithm_key(cell)
                ),
                timeout=timeout,
                retries=retries,
            )
        )

    measure_plan = [("scalar", m) for m in spec.scalar_measures]
    measure_plan += [("vector", p) for p in spec.vector_properties]
    vector_tasks: dict[str, list[tuple[str, str]]] = {}
    for cell, cell_id in zip(seeded, cell_ids):
        for kind, metric in measure_plan:
            task_id = f"measure:{metric}:{cell_id.removeprefix('anonymize:')}"
            graph.add(
                TaskSpec(
                    task_id=task_id,
                    op="measure",
                    params={
                        "dataset": dataset_payload,
                        "release_task": cell_id,
                        "kind": kind,
                        "metric": metric,
                    },
                    deps=(cell_id,),
                    key=CacheKey(
                        dataset=dataset_fingerprint,
                        algorithm=algorithm_key(cell),
                        metric=metric,
                    ),
                    timeout=timeout,
                    retries=retries,
                )
            )
            if kind == "vector":
                vector_tasks.setdefault(metric, []).append((task_id, cell.label))

    if spec.compare and len(seeded) > 1:
        family_key = canonical_json([c.as_payload() for c in seeded])
        for metric, members in vector_tasks.items():
            graph.add(
                TaskSpec(
                    task_id=f"compare:{metric}",
                    op="compare",
                    params={
                        "property": metric,
                        "order": [task_id for task_id, _ in members],
                        "labels": {task_id: label for task_id, label in members},
                    },
                    deps=tuple(task_id for task_id, _ in members),
                    key=CacheKey(
                        dataset=dataset_fingerprint,
                        algorithm=family_key,
                        metric=f"compare:{metric}",
                    ),
                    timeout=timeout,
                    retries=retries,
                )
            )
    return graph


# -- results -----------------------------------------------------------------

@dataclasses.dataclass
class StudyResult:
    """Materialized outputs of one study run."""

    spec: StudySpec
    report: ExecutionReport
    releases: dict[str, Anonymization]
    scalars: dict[str, dict[str, float]]
    vectors: dict[str, dict[str, Any]]
    comparisons: dict[str, dict[str, Any]]

    @property
    def labels(self) -> tuple[str, ...]:
        """Cell labels in grid order."""
        return tuple(self.releases)

    def grid_rows(self) -> list[dict[str, Any]]:
        """One row dict per cell: label plus every scalar measure."""
        return [
            {"cell": label, **self.scalars.get(label, {})}
            for label in self.labels
        ]


def format_study_grid(result: StudyResult) -> str:
    """Fixed-width table of the study's scalar measures, one row per cell."""
    rows = result.grid_rows()
    if not rows:
        return "(empty study)"
    measures = [c for c in rows[0] if c != "cell"]
    label_width = max(len("cell"), *(len(str(row["cell"])) for row in rows))
    widths = {m: max(len(m), 10) for m in measures}
    header = "cell".ljust(label_width) + "  " + "  ".join(
        m.rjust(widths[m]) for m in measures
    )
    lines = [header]
    for row in rows:
        cells = [str(row["cell"]).ljust(label_width)]
        cells += [f"{row[m]:>{widths[m]}.4g}" for m in measures]
        lines.append("  ".join(cells))
    return "\n".join(lines)


def run_study(
    spec: StudySpec,
    jobs: int = 1,
    cache: ResultCache | None = None,
    log: RunLog | None = None,
    timeout: float | None = None,
    retries: int = 0,
    obs: Any | None = None,
    transport: Any | None = None,
) -> StudyResult:
    """Build and execute a study, assembling the materialized result.

    Every release in the result is bound to the study's dataset, whether
    it was computed here, on a pool worker or read from ``cache``.

    ``obs`` is an optional :class:`repro.obs.Observation` enabling span
    tracing and metric collection for this run; the default keeps the
    zero-overhead null observation.  ``transport`` selects where task
    attempts run (``"inline"``/``"pool"`` or a
    :class:`~repro.runtime.transports.WorkerTransport` instance).

    Raises :class:`~repro.runtime.executor.ExecutionError` if any task
    failed; partial results are never silently returned.
    """
    graph = build_study(spec, timeout=timeout, retries=retries)
    executor = StudyExecutor(
        jobs=jobs,
        cache=cache,
        log=log,
        study_seed=spec.seed,
        default_timeout=timeout,
        default_retries=retries,
        obs=obs,
        transport=transport,
    )
    report = executor.run(graph)
    report.raise_on_failure()

    dataset, _ = spec.dataset.materialize()
    releases: dict[str, Anonymization] = {}
    scalars: dict[str, dict[str, float]] = {}
    vectors: dict[str, dict[str, Any]] = {}
    comparisons: dict[str, dict[str, Any]] = {}
    seeded = [cell.with_seed(spec.seed) for cell in spec.algorithms]
    seen_labels: dict[str, int] = {}
    for cell in seeded:
        count = seen_labels.get(cell.label, 0)
        seen_labels[cell.label] = count + 1
        suffix = f"#{count}" if count else ""
        cell_key = f"{cell.label}{suffix}"
        cell_id = f"anonymize:{cell_key}"
        releases[cell_key] = report.value(cell_id).bind(dataset)
        scalars[cell_key] = {
            metric: float(report.value(f"measure:{metric}:{cell_key}"))
            for metric in spec.scalar_measures
        }
        for prop in spec.vector_properties:
            vectors.setdefault(prop, {})[cell_key] = report.value(
                f"measure:{prop}:{cell_key}"
            )
    if spec.compare and len(seeded) > 1:
        for prop in spec.vector_properties:
            task_id = f"compare:{prop}"
            if task_id in {o for o in report.outcomes}:
                comparisons[prop] = report.value(task_id)
    return StudyResult(
        spec=spec,
        report=report,
        releases=releases,
        scalars=scalars,
        vectors=vectors,
        comparisons=comparisons,
    )


def run_release_grid(
    algorithms: Sequence[AlgorithmSpec],
    dataset: DatasetSpec,
    jobs: int = 1,
    cache: ResultCache | None = None,
    seed: int = 42,
) -> list[Anonymization]:
    """Anonymize one dataset with several algorithms, in order.

    The parallel backend of ``repro compare --jobs N``: only ``anonymize``
    tasks, results returned in input order, identical to the serial loop.
    """
    spec = StudySpec(
        dataset=dataset,
        algorithms=tuple(algorithms),
        scalar_measures=(),
        vector_properties=(),
        compare=False,
        seed=seed,
    )
    graph = build_study(spec)
    report = StudyExecutor(jobs=jobs, cache=cache, study_seed=seed).run(graph)
    report.raise_on_failure()
    original, _ = dataset.materialize()
    releases = []
    seen_labels: dict[str, int] = {}
    for cell in (c.with_seed(seed) for c in algorithms):
        count = seen_labels.get(cell.label, 0)
        seen_labels[cell.label] = count + 1
        suffix = f"#{count}" if count else ""
        release = report.value(f"anonymize:{cell.label}{suffix}")
        releases.append(release.bind(original))
    return releases
