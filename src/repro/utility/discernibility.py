"""The discernibility metric (DM) of Bayardo and Agrawal.

DM charges each tuple the size of the equivalence class it is released in
(tuples in big, indistinct classes are less useful), and charges every
suppressed tuple the full data set size N.  The per-tuple penalties are a
natural utility *property vector* (lower is better); the classical scalar DM
is their sum, equal to Σ|E|² over classes plus N·(number suppressed).
"""

from __future__ import annotations

from ..anonymize.engine import Anonymization


def tuple_penalties(anonymization: Anonymization) -> list[int]:
    """Per-tuple discernibility penalty, in row order (lower is better)."""
    total = len(anonymization)
    sizes = anonymization.equivalence_classes.sizes()
    suppressed = anonymization.suppressed
    return [
        total if row_index in suppressed else sizes[row_index]
        for row_index in range(total)
    ]


def discernibility(anonymization: Anonymization) -> int:
    """The scalar DM cost (sum of per-tuple penalties), from class sizes:
    Σ|E|² over classes, with each suppressed row's class-size charge
    replaced by N."""
    total = len(anonymization)
    classes = anonymization.equivalence_classes
    return sum(size * size for size in classes.class_sizes()) + sum(
        total - classes.size_of(row_index) for row_index in anonymization.suppressed
    )
