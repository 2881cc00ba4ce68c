"""Tournament-style rankings of anonymization families.

Section 5.4 motivates the hypervolume comparator with a "tournament"
mechanism: a candidate is preferred not because it beats a specific rival
but because it outperforms more of the space of possible anonymizations.
This module ranks whole families:

* :func:`hypervolume_ranking` — by (log) dominated hypervolume, the direct
  tournament score;
* :func:`copeland_ranking` — by pairwise wins under any ▶-better comparator.
"""

from __future__ import annotations

from typing import Mapping

from ..core.comparators import MetricComparator
from ..core.indices.binary import log_dominated_hypervolume
from ..core.vector import PropertyVector
from .matrix import relation_matrix, win_counts


def hypervolume_ranking(
    vectors: Mapping[str, PropertyVector],
    reference: float = 0.0,
) -> list[tuple[str, float]]:
    """Names with log dominated hypervolume, best first."""
    scores = [
        (name, log_dominated_hypervolume(vector, reference))
        for name, vector in vectors.items()
    ]
    return sorted(scores, key=lambda item: item[1], reverse=True)


def copeland_ranking(
    vectors: Mapping[str, PropertyVector],
    comparator: MetricComparator,
) -> list[tuple[str, int]]:
    """Names with pairwise win counts under ``comparator``, best first.

    Ties in win count preserve insertion order of ``vectors``.
    """
    matrix = relation_matrix(vectors, comparator)
    counts = win_counts(matrix)
    return sorted(
        ((name, counts[name]) for name in vectors),
        key=lambda item: item[1],
        reverse=True,
    )
