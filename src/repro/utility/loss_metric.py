"""Iyengar's general loss metric (LM), per tuple and aggregated.

The general loss metric charges each generalized cell a normalized loss in
``[0, 1]``: 0 for a raw value, 1 for full suppression, and in between the
fraction of the attribute domain the generalized value covers (categorical:
``(m-1)/(M-1)`` for a token covering m of M leaves; numeric: interval width
over domain width).  A tuple's loss is the sum of its quasi-identifier cell
losses.

The paper uses LM twice: as the "general loss metric [7]" example of a
per-tuple utility property (Section 3) and for the utility property vectors
of the weighted-comparator example (Section 5.5), where per-tuple *utility*
is on a higher-is-better scale — reproduced here by
:func:`tuple_utilities` = (number of QI attributes) − (tuple loss).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..anonymize.engine import Anonymization, AnonymizationError
from ..hierarchy.base import Hierarchy


def _check_hierarchies(
    anonymization: Anonymization, hierarchies: Mapping[str, Hierarchy]
) -> tuple[str, ...]:
    qi_names = anonymization.original.schema.quasi_identifier_names
    missing = set(qi_names) - set(hierarchies)
    if missing:
        raise AnonymizationError(f"missing hierarchies for {sorted(missing)}")
    return qi_names


def _distinct_row_losses(
    anonymization: Anonymization, hierarchies: Mapping[str, Hierarchy]
) -> tuple[Sequence[int], tuple[str, ...], list[list[float]]]:
    """``(labels, qi_names, losses)``: per distinct released row its QI cell
    losses in schema order, and each row's distinct-row label.

    Reads :meth:`~repro.anonymize.engine.Anonymization.released_codes`:
    ``released_loss`` is scored once per distinct released code, and no
    released row is built.
    """
    qi_names = _check_hierarchies(anonymization, hierarchies)
    labels, rows, decodes = anonymization.released_codes()
    scorers = [hierarchies[name].released_loss for name in qi_names]
    scored: list[dict[int, float]] = [{} for _ in qi_names]
    losses = []
    for row in rows:
        cells = []
        for released_loss, decode, memo, code in zip(scorers, decodes, scored, row):
            loss = memo.get(code)
            if loss is None:
                loss = memo[code] = released_loss(decode[code])
            cells.append(loss)
        losses.append(cells)
    return labels, qi_names, losses


def cell_losses(
    anonymization: Anonymization, hierarchies: Mapping[str, Hierarchy]
) -> list[dict[str, float]]:
    """Per-row maps of QI attribute name to normalized cell loss."""
    labels, qi_names, losses = _distinct_row_losses(anonymization, hierarchies)
    maps = [dict(zip(qi_names, cells)) for cells in losses]
    return [dict(maps[label]) for label in labels]


def tuple_losses(
    anonymization: Anonymization, hierarchies: Mapping[str, Hierarchy]
) -> list[float]:
    """Per-tuple LM loss (sum of QI cell losses), in row order.

    Each distinct released row sums its cell losses in QI schema order with
    the builtin ``sum``, as a per-row sum would.  Suppressed tuples
    naturally score the maximum (one per QI attribute) because their
    released cells are the suppression token.
    """
    labels, _, losses = _distinct_row_losses(anonymization, hierarchies)
    per_row = [sum(cells) for cells in losses]
    return [per_row[label] for label in labels]


def tuple_utilities(
    anonymization: Anonymization, hierarchies: Mapping[str, Hierarchy]
) -> list[float]:
    """Per-tuple utility on the paper's higher-is-better scale.

    A tuple with no generalization scores ``len(QI)``; a fully suppressed
    tuple scores 0.
    """
    qi_count = len(anonymization.original.schema.quasi_identifier_names)
    return [qi_count - loss for loss in tuple_losses(anonymization, hierarchies)]


def general_loss(
    anonymization: Anonymization, hierarchies: Mapping[str, Hierarchy]
) -> float:
    """Aggregate LM: mean per-tuple loss normalized by QI count (in [0,1])."""
    losses = tuple_losses(anonymization, hierarchies)
    qi_count = len(anonymization.original.schema.quasi_identifier_names)
    if not losses or not qi_count:
        return 0.0
    return sum(losses) / (len(losses) * qi_count)
