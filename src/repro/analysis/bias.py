"""Quantifying anonymization bias.

The paper defines anonymization bias as the skew of a property's
distribution across tuples: a scalar privacy level can hide that some
individuals get far more protection than others (Section 2).  This module
summarizes a property vector's distribution with the statistics that make
the bias visible — including the Gini coefficient of the property values and
the fraction of tuples stuck at the minimum (the tuples the scalar model is
actually about).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from ..core.indices.binary import binary_count
from ..core.indices.unary import gini_coefficient
from ..core.vector import PropertyVector


@dataclass(frozen=True)
class BiasSummary:
    """Distributional summary of one property vector.

    All statistics are over the *oriented* values (higher is better), so
    ``minimum`` is always the worst-protected tuple's level.
    """

    property_name: str
    size: int
    minimum: float
    maximum: float
    mean: float
    median: float
    std: float
    gini: float
    fraction_at_minimum: float

    @property
    def spread(self) -> float:
        """Range of property values — 0 means a perfectly unbiased
        anonymization (every tuple equally treated)."""
        return self.maximum - self.minimum

    def describe(self) -> str:
        """One-line human-readable rendering of the summary."""
        return (
            f"{self.property_name}: min={self.minimum:g} max={self.maximum:g} "
            f"mean={self.mean:.4g} median={self.median:g} std={self.std:.4g} "
            f"gini={self.gini:.4f} at-min={self.fraction_at_minimum:.1%}"
        )


def bias_summary(vector: PropertyVector) -> BiasSummary:
    """Distributional bias summary of one property vector."""
    oriented = vector.oriented
    size = len(oriented)
    minimum = min(oriented)
    mean = math.fsum(oriented) / size
    return BiasSummary(
        property_name=vector.name,
        size=size,
        minimum=minimum,
        maximum=max(oriented),
        mean=mean,
        median=statistics.median(oriented),
        std=math.sqrt(math.fsum((v - mean) * (v - mean) for v in oriented) / size),
        gini=gini_coefficient(oriented),
        fraction_at_minimum=oriented.count(minimum) / size,
    )


def benefit_counts(
    first: PropertyVector, second: PropertyVector
) -> tuple[int, int, int]:
    """Tuples favored by ``first``, by ``second``, and tied.

    The per-individual view of Section 2: "different anonymizations can in
    fact be better for different individuals."
    """
    first_wins = binary_count(first, second)
    second_wins = binary_count(second, first)
    ties = len(first) - first_wins - second_wins
    return first_wins, second_wins, ties
