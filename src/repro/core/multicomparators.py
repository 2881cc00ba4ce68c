"""Set-level ▶-better comparators (Sections 5.5–5.7) as comparator objects.

The functions in :mod:`repro.core.indices.multi` compute the raw P_WTD /
P_LEX / P_GOAL values; these classes wrap them with the same
``relation(first, second) -> Relation`` interface as the single-property
comparators, operating on Υ sets (sequences of property vectors paired by
property) — so multi-property comparisons plug into the same matrices,
tournaments and reports.
"""

from __future__ import annotations

import abc
from typing import Sequence

from .comparators import Relation
from .indices.multi import BinaryIndex, goal, lexicographic, weighted
from .vector import PropertyVector, _isclose

PropertySet = Sequence[PropertyVector]


class SetComparator(abc.ABC):
    """A ▶-better comparator over sets of property vectors."""

    name: str = "set-comparator"

    @abc.abstractmethod
    def relation(self, first: PropertySet, second: PropertySet) -> Relation:
        """Compare Υ1 against Υ2."""

    def better(self, first: PropertySet, second: PropertySet) -> bool:
        """Whether ``first ▶ second`` under this comparator."""
        return self.relation(first, second) is Relation.BETTER

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class WeightedBetter(SetComparator):
    """▶WTD — weighted sum of per-property binary index values wins.

    ``Υ1 ▶WTD Υ2`` iff ``P_WTD(Υ1,Υ2) > P_WTD(Υ2,Υ1)`` (Section 5.5).
    """

    name = "weighted-better"

    def __init__(
        self,
        weights: Sequence[float],
        index: BinaryIndex | Sequence[BinaryIndex] | None = None,
    ):
        self.weights = list(weights)
        self.index = index

    def relation(self, first: PropertySet, second: PropertySet) -> Relation:
        forward = weighted(first, second, self.weights, self.index)
        backward = weighted(second, first, self.weights, self.index)
        if _isclose(forward, backward):
            return Relation.EQUIVALENT
        return Relation.BETTER if forward > backward else Relation.WORSE


class LexicographicBetter(SetComparator):
    """▶LEX — the set superior on the most preferred property wins
    (Section 5.6); properties ordered as given, with significance ε."""

    name = "lexicographic-better"

    def __init__(
        self,
        epsilons: Sequence[float] | float = 0.0,
        index: BinaryIndex | Sequence[BinaryIndex] | None = None,
    ):
        self.epsilons = epsilons
        self.index = index

    def relation(self, first: PropertySet, second: PropertySet) -> Relation:
        forward = lexicographic(first, second, self.epsilons, self.index)
        backward = lexicographic(second, first, self.epsilons, self.index)
        if forward == backward:
            return Relation.EQUIVALENT
        return Relation.BETTER if forward < backward else Relation.WORSE


class GoalBetter(SetComparator):
    """▶GOAL — the set whose index values sit closer to the goal vector
    wins (Section 5.7)."""

    name = "goal-better"

    def __init__(
        self,
        goals: Sequence[float],
        index: BinaryIndex | Sequence[BinaryIndex] | None = None,
    ):
        self.goals = list(goals)
        self.index = index

    def relation(self, first: PropertySet, second: PropertySet) -> Relation:
        forward = goal(first, second, self.goals, self.index)
        backward = goal(second, first, self.goals, self.index)
        if _isclose(forward, backward):
            return Relation.EQUIVALENT
        return Relation.BETTER if forward < backward else Relation.WORSE
