"""repro.runtime — parallel, content-addressed, resumable study execution.

The execution engine behind every grid-shaped evaluation in the package: a
study (algorithm × dataset × parameters) compiles to a DAG of tasks
(anonymize → measure property vectors → compare), ready tasks run on a
process pool with per-task timeout/retry and ``hashlib``-split seed
propagation, and results are memoized in a content-addressed on-disk store
keyed by ``(dataset fingerprint, algorithm name+params, metric id, code
epoch)``.  Re-running an unchanged grid is pure cache hits; an interrupted
run resumes from its completed prefix.

Quick start::

    from repro.runtime import (
        AlgorithmSpec, DatasetSpec, ResultCache, StudySpec, run_study,
    )

    spec = StudySpec(
        dataset=DatasetSpec.of("adult", rows=300, seed=42),
        algorithms=tuple(
            AlgorithmSpec.of(name, k=k)
            for name in ("datafly", "mondrian", "samarati")
            for k in (2, 5, 10)
        ),
    )
    result = run_study(spec, jobs=4, cache=ResultCache(".repro-cache"))
    print(result.grid_rows())
"""

from .cache import MISS, CacheError, CacheStats, ResultCache
from .events import (
    EVENT_KINDS,
    RunLog,
    read_events,
    read_manifest,
    summarize_events,
)
from .executor import (
    ExecutionError,
    ExecutionReport,
    StudyExecutor,
    TaskOutcome,
)
from .transports import (
    TRANSPORT_NAMES,
    InlineTransport,
    PoolTransport,
    TaskPayload,
    TaskResult,
    TransportError,
    WorkerTransport,
    create_transport,
)
from .study import (
    ALGORITHM_FACTORIES,
    DATASET_PROVIDERS,
    SCALAR_MEASURES,
    VECTOR_PROPERTIES,
    AlgorithmSpec,
    DatasetSpec,
    StudyError,
    StudyResult,
    StudySpec,
    build_study,
    format_study_grid,
    run_release_grid,
    run_study,
)
from .task import (
    CODE_EPOCH,
    CacheKey,
    TaskError,
    TaskGraph,
    TaskSpec,
    canonical_json,
    derive_seed,
    register_op,
    resolve_op,
)

__all__ = [
    "ALGORITHM_FACTORIES",
    "AlgorithmSpec",
    "CacheError",
    "CacheKey",
    "CacheStats",
    "CODE_EPOCH",
    "DATASET_PROVIDERS",
    "DatasetSpec",
    "EVENT_KINDS",
    "ExecutionError",
    "ExecutionReport",
    "InlineTransport",
    "MISS",
    "PoolTransport",
    "ResultCache",
    "RunLog",
    "SCALAR_MEASURES",
    "StudyError",
    "StudyExecutor",
    "StudyResult",
    "StudySpec",
    "TaskError",
    "TaskGraph",
    "TaskOutcome",
    "TaskPayload",
    "TaskResult",
    "TaskSpec",
    "TRANSPORT_NAMES",
    "TransportError",
    "VECTOR_PROPERTIES",
    "WorkerTransport",
    "build_study",
    "canonical_json",
    "create_transport",
    "derive_seed",
    "format_study_grid",
    "read_events",
    "read_manifest",
    "register_op",
    "resolve_op",
    "run_release_grid",
    "run_study",
    "summarize_events",
]
