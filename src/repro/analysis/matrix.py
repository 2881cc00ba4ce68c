"""Pairwise comparison matrices over families of anonymizations.

All-pairs relation and index matrices are embarrassingly parallel; both
builders accept an optional :class:`~repro.runtime.executor.StudyExecutor`
and then fan each ordered pair out as a runtime task (property vectors and
comparators are picklable, so cells may run in worker processes).  Without
an executor the loops run in place, exactly as before.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from ..core.comparators import MetricComparator, Relation, dominance_relation
from ..core.vector import PropertyVector
from ..runtime.executor import StudyExecutor
from ..runtime.task import TaskGraph, TaskSpec, register_op

PairKey = tuple[str, str]


@register_op("analysis.relation-cell")
def _op_relation_cell(
    params: Mapping[str, Any], deps: Mapping[str, Any], seed: int
) -> Relation:
    """One ordered-pair relation (dominance or a ▶-better comparator)."""
    comparator = params["comparator"]
    if comparator is None:
        return dominance_relation(params["first"], params["second"])
    return comparator.relation(params["first"], params["second"])


@register_op("analysis.index-cell")
def _op_index_cell(
    params: Mapping[str, Any], deps: Mapping[str, Any], seed: int
) -> float:
    """One ordered-pair binary index value."""
    return params["index"](params["first"], params["second"])


def _pairwise_fanout(
    vectors: Mapping[str, PropertyVector],
    op: str,
    cell_params: Callable[[str, str], dict[str, Any]],
    executor: StudyExecutor,
) -> dict[PairKey, Any]:
    """Run one task per ordered pair of distinct names on the executor."""
    names = list(vectors)
    graph = TaskGraph()
    pairs: list[PairKey] = []
    for first in names:
        for second in names:
            if first == second:
                continue
            pairs.append((first, second))
            graph.add(
                TaskSpec(
                    task_id=f"{op}:{first}|{second}",
                    op=op,
                    params=cell_params(first, second),
                )
            )
    report = executor.run(graph)
    report.raise_on_failure()
    return {
        (first, second): report.value(f"{op}:{first}|{second}")
        for first, second in pairs
    }


def relation_matrix_serial(
    vectors: Mapping[str, PropertyVector],
    comparator: MetricComparator | None = None,
) -> dict[PairKey, Relation]:
    """All ordered-pair relations, computed in-process.

    The pure half of :func:`relation_matrix`: no executor, no task graph —
    and therefore the path registered task operations (``compare``) call,
    so a task never nests a :class:`StudyExecutor` (clocks, run-dir IO,
    observability state) inside itself.
    """
    names = list(vectors)
    matrix: dict[PairKey, Relation] = {}
    for first in names:
        for second in names:
            if first == second:
                matrix[(first, second)] = Relation.EQUIVALENT
            elif comparator is None:
                matrix[(first, second)] = dominance_relation(
                    vectors[first], vectors[second]
                )
            else:
                matrix[(first, second)] = comparator.relation(
                    vectors[first], vectors[second]
                )
    return matrix


def relation_matrix(
    vectors: Mapping[str, PropertyVector],
    comparator: MetricComparator | None = None,
    executor: StudyExecutor | None = None,
) -> dict[PairKey, Relation]:
    """All ordered-pair relations between the named property vectors.

    With ``comparator=None`` the strict dominance relation of Table 4 is
    used; otherwise the given ▶-better comparator.  With ``executor`` the
    cells run as runtime tasks (parallel for ``jobs > 1``).
    """
    if executor is None:
        return relation_matrix_serial(vectors, comparator)
    matrix = _pairwise_fanout(
        vectors,
        "analysis.relation-cell",
        lambda first, second: {
            "first": vectors[first],
            "second": vectors[second],
            "comparator": comparator,
        },
        executor,
    )
    for name in vectors:
        matrix[(name, name)] = Relation.EQUIVALENT
    return matrix


def index_matrix_serial(
    vectors: Mapping[str, PropertyVector],
    index: Callable[[PropertyVector, PropertyVector], float],
) -> dict[PairKey, float]:
    """All ordered-pair binary index values, computed in-process."""
    names = list(vectors)
    return {
        (first, second): index(vectors[first], vectors[second])
        for first in names
        for second in names
        if first != second
    }


def index_matrix(
    vectors: Mapping[str, PropertyVector],
    index: Callable[[PropertyVector, PropertyVector], float],
    executor: StudyExecutor | None = None,
) -> dict[PairKey, float]:
    """All ordered-pair binary index values (e.g. ``P_cov`` between every
    pair of candidate anonymizations).  With ``executor`` the cells run as
    runtime tasks."""
    if executor is None:
        return index_matrix_serial(vectors, index)
    return _pairwise_fanout(
        vectors,
        "analysis.index-cell",
        lambda first, second: {
            "first": vectors[first],
            "second": vectors[second],
            "index": index,
        },
        executor,
    )


def win_counts(matrix: Mapping[PairKey, Relation]) -> dict[str, int]:
    """Copeland-style win counts from a relation matrix."""
    counts: dict[str, int] = {}
    for (first, second), relation in matrix.items():
        counts.setdefault(first, 0)
        counts.setdefault(second, 0)
        if first != second and relation is Relation.BETTER:
            counts[first] += 1
    return counts


def format_relation_matrix(
    matrix: Mapping[PairKey, Relation], names: Sequence[str] | None = None
) -> str:
    """Plain-text rendering of a relation matrix (rows compare against
    columns; ``>`` better, ``<`` worse, ``=`` equivalent, ``||``
    incomparable)."""
    if names is None:
        names = sorted({name for pair in matrix for name in pair})
    symbol = {
        Relation.BETTER: ">",
        Relation.WORSE: "<",
        Relation.EQUIVALENT: "=",
        Relation.INCOMPARABLE: "||",
    }
    width = max(len(name) for name in names)
    cell_width = max(width, 2)
    header = " " * (width + 2) + "  ".join(name.ljust(cell_width) for name in names)
    lines = [header]
    for first in names:
        cells = [
            symbol[matrix[(first, second)]].ljust(cell_width) for second in names
        ]
        lines.append(f"{first.ljust(width)}  " + "  ".join(cells))
    return "\n".join(lines)
