"""Comparators over property vectors.

Implements the strict dominance comparators of Table 4 (weak dominance ⪰,
strong dominance ≻, non-dominance ∥) on single vectors, on sets of property
vectors paired by property, and on anonymizations via induced property sets —
plus the ▶-better ("metric better") comparator family of Section 5:

* ``MinBetter`` — ▶min, the scalar comparison the paper criticizes;
* ``RankBetter`` — ▶rank with an ε-tolerance (Section 5.1);
* ``CoverageBetter`` — ▶cov (Section 5.2);
* ``SpreadBetter`` — ▶spr (Section 5.3);
* ``HypervolumeBetter`` — ▶hv (Section 5.4).

Every comparator returns a :class:`Relation`; the strict comparators can
additionally return ``INCOMPARABLE``, which is exactly the outcome whose
prevalence motivates the ▶-better family.
"""

from __future__ import annotations

import abc
import enum
import math
from typing import Sequence

from .indices.binary import compare_hypervolume, coverage, spread
from .indices.unary import GiniIndex, RankIndex
from .vector import PropertyVector, PropertyVectorError, _isclose, check_comparable


class Relation(enum.Enum):
    """Outcome of comparing the first operand against the second."""

    BETTER = "better"
    WORSE = "worse"
    EQUIVALENT = "equivalent"
    INCOMPARABLE = "incomparable"

    def flipped(self) -> "Relation":
        """The relation as seen from the second operand."""
        if self is Relation.BETTER:
            return Relation.WORSE
        if self is Relation.WORSE:
            return Relation.BETTER
        return self


# -- strict (dominance) comparisons: Table 4 ---------------------------------

def _better_worse(first: PropertyVector, second: PropertyVector) -> tuple[bool, bool]:
    """Whether ``first`` is strictly better in some tuple, and whether it is
    strictly worse in some tuple; the scan stops once both are seen."""
    check_comparable(first, second)
    better = worse = False
    # Raw values: negating both sides of a comparison just swaps its outcome.
    for a, b in zip(first, second):
        if a > b:
            better = True
        elif a < b:
            worse = True
        if better and worse:
            break
    return (better, worse) if first.higher_is_better else (worse, better)


def weakly_dominates(first: PropertyVector, second: PropertyVector) -> bool:
    """⪰ — ``first`` is *not worse than* ``second`` in every tuple."""
    return not _better_worse(first, second)[1]


def strongly_dominates(first: PropertyVector, second: PropertyVector) -> bool:
    """≻ — weakly dominates and is strictly better for at least one tuple."""
    return dominance_relation(first, second) is Relation.BETTER


def non_dominated(first: PropertyVector, second: PropertyVector) -> bool:
    """∥ — each vector is strictly better somewhere (incomparable)."""
    return dominance_relation(first, second) is Relation.INCOMPARABLE


def dominance_relation(first: PropertyVector, second: PropertyVector) -> Relation:
    """Classify the dominance relationship of two property vectors."""
    any_better, any_worse = _better_worse(first, second)
    if any_better and any_worse:
        return Relation.INCOMPARABLE
    if any_better:
        return Relation.BETTER
    if any_worse:
        return Relation.WORSE
    return Relation.EQUIVALENT


def _check_paired(
    first: Sequence[PropertyVector], second: Sequence[PropertyVector]
) -> None:
    if len(first) != len(second):
        raise PropertyVectorError(
            f"property sets have different sizes ({len(first)} vs {len(second)})"
        )
    if not first:
        raise PropertyVectorError("property sets must be non-empty")
    for a, b in zip(first, second):
        check_comparable(a, b)


def set_weakly_dominates(
    first: Sequence[PropertyVector], second: Sequence[PropertyVector]
) -> bool:
    """Υ1 ⪰ Υ2 — every paired property vector weakly dominates its partner
    (vectors are paired by property position, Table 4)."""
    _check_paired(first, second)
    return all(weakly_dominates(a, b) for a, b in zip(first, second))


def set_strongly_dominates(
    first: Sequence[PropertyVector], second: Sequence[PropertyVector]
) -> bool:
    """Υ1 ≻ Υ2 — all pairs weakly dominate and at least one strongly does."""
    _check_paired(first, second)
    return set_weakly_dominates(first, second) and any(
        strongly_dominates(a, b) for a, b in zip(first, second)
    )


def set_non_dominated(
    first: Sequence[PropertyVector], second: Sequence[PropertyVector]
) -> bool:
    """Υ1 ∥ Υ2 — some pair favors each side (incomparable sets)."""
    _check_paired(first, second)
    return any(strongly_dominates(a, b) for a, b in zip(first, second)) and any(
        strongly_dominates(b, a) for a, b in zip(first, second)
    )


def set_dominance_relation(
    first: Sequence[PropertyVector], second: Sequence[PropertyVector]
) -> Relation:
    """Classify the dominance relationship of two property-vector sets."""
    if set_strongly_dominates(first, second):
        return Relation.BETTER
    if set_strongly_dominates(second, first):
        return Relation.WORSE
    if set_weakly_dominates(first, second) and set_weakly_dominates(second, first):
        return Relation.EQUIVALENT
    return Relation.INCOMPARABLE


# -- ▶-better comparators (Section 5) ----------------------------------------

class MetricComparator(abc.ABC):
    """A ▶-better comparator: a weaker, total-er notion of superiority that
    pays attention to property values across *all* tuples."""

    name: str = "metric-comparator"

    @abc.abstractmethod
    def relation(self, first: PropertyVector, second: PropertyVector) -> Relation:
        """Compare ``first`` against ``second``."""

    def better(self, first: PropertyVector, second: PropertyVector) -> bool:
        """Whether ``first ▶ second``."""
        return self.relation(first, second) is Relation.BETTER

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class MinBetter(MetricComparator):
    """▶min — compares vector minima; the aggregate comparator behind
    statements like "4-anonymity is better than 3-anonymity" that the paper
    rejects as bias-blind.  Included as the baseline."""

    name = "min-better"

    def relation(self, first: PropertyVector, second: PropertyVector) -> Relation:
        check_comparable(first, second)
        a = min(first.oriented)
        b = min(second.oriented)
        if a > b:
            return Relation.BETTER
        if a < b:
            return Relation.WORSE
        return Relation.EQUIVALENT


class RankBetter(MetricComparator):
    """▶rank — smaller distance to the ideal vector wins; vectors within
    ``epsilon`` of each other's rank are equivalent (Section 5.1)."""

    name = "rank-better"

    def __init__(self, ideal: PropertyVector | float, order: float = 2,
                 epsilon: float = 0.0):
        self.index = RankIndex(ideal, order=order, epsilon=epsilon)

    def relation(self, first: PropertyVector, second: PropertyVector) -> Relation:
        if self.index.equivalent(first, second):
            return Relation.EQUIVALENT
        if self.index.value(first) < self.index.value(second):
            return Relation.BETTER
        return Relation.WORSE


class CoverageBetter(MetricComparator):
    """▶cov — more tuples with at-least-as-good property values win
    (Section 5.2).  ``strict=True`` selects the tie-free ablation."""

    name = "coverage-better"

    def __init__(self, strict: bool = False):
        self.strict = strict

    def relation(self, first: PropertyVector, second: PropertyVector) -> Relation:
        forward = coverage(first, second, strict=self.strict)
        backward = coverage(second, first, strict=self.strict)
        if forward > backward:
            return Relation.BETTER
        if forward < backward:
            return Relation.WORSE
        return Relation.EQUIVALENT


class SpreadBetter(MetricComparator):
    """▶spr — larger total winning margin wins (Section 5.3)."""

    name = "spread-better"

    def relation(self, first: PropertyVector, second: PropertyVector) -> Relation:
        forward = spread(first, second)
        backward = spread(second, first)
        if _isclose(forward, backward):
            return Relation.EQUIVALENT
        if forward > backward:
            return Relation.BETTER
        return Relation.WORSE


class HypervolumeBetter(MetricComparator):
    """▶hv — larger solely-dominated hypervolume wins (Section 5.4).

    Implemented in log space so it is safe for large data sets.
    """

    name = "hypervolume-better"

    def __init__(self, reference: float = 0.0):
        self.reference = reference

    def relation(self, first: PropertyVector, second: PropertyVector) -> Relation:
        sign = compare_hypervolume(first, second, reference=self.reference)
        if sign > 0:
            return Relation.BETTER
        if sign < 0:
            return Relation.WORSE
        return Relation.EQUIVALENT


class LeastBiasedBetter(MetricComparator):
    """▶bias — prefers the anonymization with the more equal distribution.

    An extension the paper's Section 2 invites ("no attempt is known to
    have been made to measure it"): compare the floor first (nobody should
    pay for equality with less protection than the rival's worst-off
    tuple), then break ties by the smaller Gini coefficient of the
    property's distribution.
    """

    name = "least-biased-better"

    def __init__(self, gini_tolerance: float = 0.0):
        if gini_tolerance < 0:
            raise PropertyVectorError("gini tolerance must be non-negative")
        self.gini_tolerance = gini_tolerance
        self._gini = GiniIndex()

    def relation(self, first: PropertyVector, second: PropertyVector) -> Relation:
        check_comparable(first, second)
        floor_first = min(first.oriented)
        floor_second = min(second.oriented)
        if not math.isclose(
            floor_first, floor_second, rel_tol=1e-9, abs_tol=1e-12
        ):
            return (
                Relation.BETTER if floor_first > floor_second else Relation.WORSE
            )
        gini_first = self._gini.value(first)
        gini_second = self._gini.value(second)
        if abs(gini_first - gini_second) <= self.gini_tolerance:
            return Relation.EQUIVALENT
        return (
            Relation.BETTER if gini_first < gini_second else Relation.WORSE
        )


def default_comparators(
    ideal: PropertyVector | float, reference: float = 0.0
) -> dict[str, MetricComparator]:
    """The paper's comparator suite, keyed by short name."""
    return {
        "min": MinBetter(),
        "rank": RankBetter(ideal),
        "cov": CoverageBetter(),
        "spr": SpreadBetter(),
        "hv": HypervolumeBetter(reference),
    }
