"""Pairwise comparison matrices over families of anonymizations.

All-pairs relation and index matrices are pure functions of the property
vectors, computed in place.  The study runtime's ``compare`` op calls
:func:`relation_matrix` directly; process parallelism belongs to the study
grid, not to the cells.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from ..core.comparators import MetricComparator, Relation, dominance_relation
from ..core.vector import PropertyVector

PairKey = tuple[str, str]


def relation_matrix(
    vectors: Mapping[str, PropertyVector],
    comparator: MetricComparator | None = None,
) -> dict[PairKey, Relation]:
    """All ordered-pair relations between the named property vectors.

    With ``comparator=None`` the strict dominance relation of Table 4 is
    used; otherwise the given ▶-better comparator.
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


#: The same builder under the name ``benchmarks/e2e/layers.py`` traces.
relation_matrix_serial = relation_matrix


def index_matrix(
    vectors: Mapping[str, PropertyVector],
    index: Callable[[PropertyVector, PropertyVector], float],
) -> dict[PairKey, float]:
    """All ordered-pair binary index values (e.g. ``P_cov`` between every
    pair of candidate anonymizations)."""
    names = list(vectors)
    return {
        (first, second): index(vectors[first], vectors[second])
        for first in names
        for second in names
        if first != second
    }


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
