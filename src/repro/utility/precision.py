"""Sweeney's precision metric (Prec) for full-domain recodings.

``Prec = 1 - (Σ_cells level/height) / (N · |QI|)``: each generalized cell is
charged the fraction of its hierarchy it climbed.  Defined for full-domain
recodings (the level vector is part of the anonymization); for local
recodings the per-cell hierarchy fraction is approximated by the cell's
normalized loss, which coincides with level/height for uniform hierarchies.
"""

from __future__ import annotations

from typing import Mapping

from ..anonymize.engine import Anonymization, AnonymizationError
from ..hierarchy.base import Hierarchy
from .loss_metric import tuple_losses


def tuple_precisions(
    anonymization: Anonymization, hierarchies: Mapping[str, Hierarchy]
) -> list[float]:
    """Per-tuple precision in [0, 1] (higher is better), in row order."""
    schema = anonymization.original.schema
    qi_names = schema.quasi_identifier_names
    missing = set(qi_names) - set(hierarchies)
    if missing:
        raise AnonymizationError(f"missing hierarchies for {sorted(missing)}")
    if not qi_names:
        return [1.0] * len(anonymization)

    if anonymization.levels is not None:
        fractions = {
            name: anonymization.levels[name] / hierarchies[name].height
            for name in qi_names
        }
        row_fraction = sum(fractions.values()) / len(qi_names)
        full = 1.0  # suppressed rows sit at the hierarchy top in every QI
        return [
            1.0 - (full if row_index in anonymization.suppressed else row_fraction)
            for row_index in range(len(anonymization))
        ]

    # Local recoding: a row climbs its cells' normalized losses.
    return [
        0.0 if row_index in anonymization.suppressed else 1.0 - loss / len(qi_names)
        for row_index, loss in enumerate(tuple_losses(anonymization, hierarchies))
    ]


def precision(
    anonymization: Anonymization, hierarchies: Mapping[str, Hierarchy]
) -> float:
    """The scalar Prec value (mean per-tuple precision)."""
    values = tuple_precisions(anonymization, hierarchies)
    return sum(values) / len(values) if values else 1.0
