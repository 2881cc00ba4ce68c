"""Mondrian multidimensional k-anonymity (LeFevre, DeWitt, Ramakrishnan).

Mondrian recursively partitions the data by median cuts on one
quasi-identifier at a time (the one with the widest normalized range in the
partition), stopping when no cut leaves both sides with at least k rows.
Each final partition is released with its attributes summarized: numeric
attributes by their closed min-max :class:`~repro.hierarchy.numeric.Span`,
categorical attributes by the frozenset of values present (or the raw value
when unique).  This is *local* recoding — the multidimensional flexibility
that lets Mondrian beat full-domain algorithms on utility.

Both the **strict** variant (median cut splits a sorted order, allowed only
if both sides have >= k rows) and the **relaxed** variant (rows equal to the
median are distributed to balance the halves) are provided.

Cuts run over per-row integer *rank codes*, built once per QI: the column's
exactly interned values (``7`` apart from ``7.0``, see
:func:`~repro.anonymize.algorithms.cuts._exact_column`) are ranked in the
cut order — numeric attributes by value, categorical ones by ``str`` — and
values that order as equal share a rank.  A strict cut is then the first
position of the median's rank in the partition's sorted ranks, and a
partition's rows are sorted (stably, by rank) only once a cut is accepted,
so each side keeps the incoming row order among tied values.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Mapping, Sequence

from ...datasets.dataset import Dataset
from ...datasets.schema import AttributeKind, SchemaError
from ...hierarchy.base import Hierarchy
from ...hierarchy.numeric import Span
from ..engine import Anonymization, released_with_local_cells
from .base import Anonymizer, check_k
from .cuts import _exact_column


def _rank_codes(dataset: Dataset, attribute: str, numeric: bool) -> list[int]:
    """Per-row rank of one column in Mondrian's cut order.

    Numeric values rank by value, categorical ones by ``str(value)``;
    values equal under that order share a rank.  Ranking runs once per
    exactly interned value, then gathers per row.
    """
    codes, decode = _exact_column(dataset, attribute)
    keys = decode if numeric else [str(value) for value in decode]
    rank_of = [0] * len(keys)
    rank = -1
    previous: Any = None
    for code in sorted(range(len(keys)), key=keys.__getitem__):
        key = keys[code]
        if rank < 0 or previous < key:
            rank += 1
            previous = key
        rank_of[code] = rank
    return list(map(rank_of.__getitem__, codes))


class Mondrian(Anonymizer):
    """Mondrian k-anonymizer.

    Parameters
    ----------
    k:
        The k-anonymity requirement.
    relaxed:
        Use relaxed multidimensional partitioning (ties at the median are
        split to balance partitions) instead of strict.
    l_diversity:
        Optional distinct-l requirement on ``sensitive_attribute``: a cut
        is allowed only if both sides keep at least ``l`` distinct
        sensitive values (the Mondrian l-diversity variant of
        Machanavajjhala et al. / LeFevre et al.).
    sensitive_attribute:
        Column the diversity requirement protects; defaults to the
        schema's sole sensitive attribute.
    """

    def __init__(
        self,
        k: int,
        relaxed: bool = False,
        l_diversity: int | None = None,
        sensitive_attribute: str | None = None,
    ):
        self.k = check_k(k)
        self.relaxed = relaxed
        if l_diversity is not None and l_diversity < 1:
            raise ValueError(f"l must be >= 1, got {l_diversity}")
        self.l_diversity = l_diversity
        self.sensitive_attribute = sensitive_attribute
        variant = "relaxed" if relaxed else "strict"
        suffix = f",l={l_diversity}" if l_diversity else ""
        self.name = f"mondrian-{variant}[k={k}{suffix}]"

    # -- partitioning ---------------------------------------------------------

    def _diversity_test(
        self, dataset: Dataset
    ) -> Callable[[Sequence[int]], bool] | None:
        """The l-diversity floor a candidate side must meet, or ``None``.

        Resolves the sensitive attribute (raising :class:`SchemaError`
        when it cannot) and counts its equality codes, stopping at ``l``.
        """
        floor = self.l_diversity
        if floor is None:
            return None
        attribute = self.sensitive_attribute
        if attribute is None:
            names = dataset.schema.sensitive_names
            if len(names) != 1:
                raise SchemaError(
                    "dataset does not have exactly one sensitive attribute; "
                    "pass sensitive_attribute explicitly"
                )
            attribute = names[0]
        codes = dataset.columns().column(attribute).codes

        def diverse(rows: Sequence[int]) -> bool:
            distinct: set[int] = set()
            for code in map(codes.__getitem__, rows):
                distinct.add(code)
                if len(distinct) >= floor:
                    return True
            return False

        return diverse

    def partitions(
        self, dataset: Dataset, hierarchies: Mapping[str, Hierarchy] | None = None
    ) -> list[list[int]]:
        """The final multidimensional partitions (row-index lists).

        Raises :class:`ValueError` if a numeric quasi-identifier holds NaN
        (it has no place in the cut order), and :class:`SchemaError` if
        ``l_diversity`` is set but the sensitive attribute is unresolvable.
        """
        if not len(dataset):
            return []
        diverse = self._diversity_test(dataset)
        # Per QI: (numeric, spread values, extent, rank codes).  Numeric
        # spreads read the exact column; categorical ones count equality
        # codes, as ``len(set(values))`` does.
        qi: list[tuple[bool, Sequence[Any], Any, list[int]]] = []
        for attribute in dataset.schema.quasi_identifiers:
            name = attribute.name
            numeric = attribute.kind is AttributeKind.NUMERIC
            if numeric:
                values: Sequence[Any] = dataset.column(name)
                extent = max(values) - min(values)
                nan_row = next(
                    (row for row, value in enumerate(values) if value != value),
                    None,
                )
                if nan_row is not None:
                    raise ValueError(
                        f"numeric quasi-identifier {name!r} holds NaN "
                        f"(first at row {nan_row}); Mondrian cannot order it"
                    )
            else:
                interned = dataset.columns().column(name)
                values = list(interned.codes)
                extent = interned.domain_size
            rank = _rank_codes(dataset, name, numeric)
            qi.append((numeric, values, extent, rank))

        k, relaxed = self.k, self.relaxed
        finished: list[list[int]] = []
        pending: list[list[int]] = [list(range(len(dataset)))]
        while pending:
            rows = pending.pop()
            size = len(rows)
            if size < 2 * k:
                # No cut can leave both sides with k rows.
                finished.append(rows)
                continue
            spreads = []
            for numeric, values, extent, _ in qi:
                if numeric:
                    spreads.append(
                        0.0 if extent == 0 else (
                            max(map(values.__getitem__, rows))
                            - min(map(values.__getitem__, rows))
                        ) / extent
                    )
                else:
                    spreads.append(
                        0.0 if extent <= 1 else (
                            len(set(map(values.__getitem__, rows))) - 1
                        ) / (extent - 1)
                    )
            # Try attributes by decreasing spread until one admits a cut.
            by_spread = sorted(
                range(len(qi)), key=spreads.__getitem__, reverse=True
            )
            for index in by_spread:
                rank = qi[index][3]
                if relaxed:
                    cut = size // 2
                else:
                    # Strict: the cut falls before the median's rank, so
                    # rows that order as equal stay together.
                    keys = sorted(map(rank.__getitem__, rows))
                    cut = bisect_left(keys, keys[size // 2])
                if cut < k or size - cut < k:
                    continue
                ordered = sorted(rows, key=rank.__getitem__)
                left, right = ordered[:cut], ordered[cut:]
                if diverse is None or (diverse(left) and diverse(right)):
                    pending.append(left)
                    pending.append(right)
                    break
            else:
                finished.append(rows)
        return finished

    # -- release --------------------------------------------------------------

    def anonymize(
        self, dataset: Dataset, hierarchies: Mapping[str, Hierarchy] | None = None
    ) -> Anonymization:
        """Anonymize; ``hierarchies`` are unused (accepted for protocol
        uniformity — Mondrian needs no generalization hierarchies)."""
        if len(dataset) < self.k:
            raise ValueError(
                f"dataset of {len(dataset)} rows cannot be {self.k}-anonymized"
            )
        columns = [
            (a.name, dataset.column(a.name), a.kind is AttributeKind.NUMERIC)
            for a in dataset.schema.quasi_identifiers
        ]
        qi_cells: list[dict[str, Any]] = [{}] * len(dataset)
        for rows in self.partitions(dataset):
            # One summary per partition, shared by its rows: each cell is
            # one of the partition's own objects (or a Span/frozenset of
            # them), taken in partition order.
            summary: dict[str, Any] = {}
            for name, column, numeric in columns:
                values = list(map(column.__getitem__, rows))
                if numeric:
                    low, high = min(values), max(values)
                    summary[name] = (
                        values[0] if low == high else Span(float(low), float(high))
                    )
                else:
                    distinct = frozenset(values)
                    summary[name] = values[0] if len(distinct) == 1 else distinct
            for row in rows:
                qi_cells[row] = summary
        return released_with_local_cells(dataset, qi_cells, name=self.name)
