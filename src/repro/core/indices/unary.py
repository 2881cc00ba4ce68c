"""Unary quality indices (Definition 3 with m = 1).

A unary index maps one property vector to a real number.  The paper's
examples: ``P_k-anon(s) = min(s)``, ``P_s-avg(s) = mean(s)``, the l-diversity
index, and the rank index ``P_rank(D) = ||D - D_max||`` of Section 5.1.
Theorem 1 shows families of fewer than N unary indices cannot characterize
dominance — see :mod:`repro.core.theory` for the executable demonstration.
"""

from __future__ import annotations

import abc
import math
from typing import Sequence

from ..vector import (
    PropertyVector,
    PropertyVectorError,
    check_comparable,
    sorted_quantile,
)


class UnaryIndex(abc.ABC):
    """A function from one property vector to a real quality value.

    ``larger_is_better`` states the orientation of the *index value* (for
    ``P_rank`` a smaller distance is better, for ``P_k-anon`` a larger
    minimum is better).
    """

    name: str = "unary-index"
    larger_is_better: bool = True

    @abc.abstractmethod
    def value(self, vector: PropertyVector) -> float:
        """The index value of ``vector``."""

    def __call__(self, vector: PropertyVector) -> float:
        return self.value(vector)

    def prefers(self, first: PropertyVector, second: PropertyVector) -> bool:
        """Whether this index strictly prefers ``first`` over ``second``."""
        check_comparable(first, second)
        a, b = self.value(first), self.value(second)
        return a > b if self.larger_is_better else a < b

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class MinimumIndex(UnaryIndex):
    """``P_k-anon``: the minimum oriented property value.

    On the equivalence-class-size property this is exactly the k of
    k-anonymity; on the sensitive-value-count property it is the paper's
    l-diversity index value (Section 3).
    """

    name = "minimum"
    larger_is_better = True

    def value(self, vector: PropertyVector) -> float:
        return min(vector.oriented)


class MeanIndex(UnaryIndex):
    """``P_s-avg``: the mean oriented property value (3.4 for the paper's
    T3a class-size vector)."""

    name = "mean"
    larger_is_better = True

    def value(self, vector: PropertyVector) -> float:
        return math.fsum(vector.oriented) / len(vector)


class MaximumIndex(UnaryIndex):
    """The maximum oriented property value."""

    name = "maximum"
    larger_is_better = True

    def value(self, vector: PropertyVector) -> float:
        return max(vector.oriented)


class QuantileIndex(UnaryIndex):
    """An order-statistic index (median by default).

    Useful as a robust middle ground between the minimalistic ``min`` the
    paper criticizes and the mean.
    """

    def __init__(self, q: float = 0.5):
        if not 0.0 <= q <= 1.0:
            raise PropertyVectorError(f"quantile must be in [0,1], got {q}")
        self.q = q
        self.name = f"quantile[{q}]"

    larger_is_better = True

    def value(self, vector: PropertyVector) -> float:
        return sorted_quantile(sorted(vector.oriented), self.q)


class GiniIndex(UnaryIndex):
    """Gini coefficient of the oriented property values — a direct unary
    measurement of the *anonymization bias* itself (Section 2).

    0 means every tuple enjoys the same property level (no bias); values
    toward 1 mean the protection is concentrated on a fraction of the data
    set.  Smaller is better.
    """

    name = "gini"
    larger_is_better = False

    def value(self, vector: PropertyVector) -> float:
        return gini_coefficient(vector.oriented)


def gini_coefficient(values: Sequence[float]) -> float:
    """Gini coefficient of ``values`` (0 = equal, → 1 = skewed).

    Values are shifted to be non-negative first, since property vectors may
    be oriented by negation.
    """
    ordered = sorted(values)
    low = ordered[0]
    shifted = [v - low for v in ordered] if low < 0 else ordered
    total = math.fsum(shifted)
    if total == 0:
        return 0.0
    n = len(shifted)
    weighted = math.fsum(rank * v for rank, v in enumerate(shifted, 1))
    return 2 * weighted / (n * total) - (n + 1) / n


class RankIndex(UnaryIndex):
    """``P_rank``: distance to the most desired property vector (Section 5.1).

    Smaller distances are better; two vectors whose ranks differ by at most
    ``epsilon`` are considered equally good.

    Parameters
    ----------
    ideal:
        The point of interest ``D_max`` — either a full property vector or a
        scalar broadcast to every tuple (e.g. ``N`` for the class-size
        property, where the single all-N class is ideal).
    order:
        Norm order: 2 (Euclidean, matching the figure's circular arcs), 1
        or ``math.inf``.
    epsilon:
        Equivalence tolerance on the rank.
    """

    larger_is_better = False

    def __init__(
        self,
        ideal: PropertyVector | float,
        order: float = 2,
        epsilon: float = 0.0,
    ):
        if epsilon < 0:
            raise PropertyVectorError(f"epsilon must be non-negative, got {epsilon}")
        if order not in (1, 2, math.inf):
            raise PropertyVectorError(
                f"norm order must be 1, 2 or math.inf, got {order!r}"
            )
        self._ideal = ideal
        self.order = order
        self.epsilon = epsilon
        self.name = f"rank[order={order}]"

    def _differences(self, vector: PropertyVector) -> list[float]:
        if isinstance(self._ideal, PropertyVector):
            check_comparable(vector, self._ideal)
            return [a - b for a, b in zip(vector.oriented, self._ideal.oriented)]
        scalar = float(self._ideal)
        oriented_scalar = scalar if vector.higher_is_better else -scalar
        return [a - oriented_scalar for a in vector.oriented]

    def value(self, vector: PropertyVector) -> float:
        magnitudes = [abs(d) for d in self._differences(vector)]
        if self.order == 1:
            return math.fsum(magnitudes)
        if self.order == 2:
            return math.sqrt(math.fsum(d * d for d in magnitudes))
        return max(magnitudes)

    def equivalent(self, first: PropertyVector, second: PropertyVector) -> bool:
        """Whether the two vectors are equi-ranked within the tolerance —
        geometrically, whether they lie in the same ε-annulus around
        ``D_max`` (Figure 2)."""
        check_comparable(first, second)
        return abs(self.value(first) - self.value(second)) <= self.epsilon

    def prefers(self, first: PropertyVector, second: PropertyVector) -> bool:
        if self.equivalent(first, second):
            return False
        return self.value(first) < self.value(second)
