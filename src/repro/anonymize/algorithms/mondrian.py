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
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ...datasets.dataset import Dataset
from ...datasets.schema import AttributeKind
from ...hierarchy.base import Hierarchy
from ...hierarchy.numeric import Span
from ..engine import Anonymization, released_with_local_cells
from .base import Anonymizer, check_k


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

    @staticmethod
    def _extent(dataset: Dataset, attribute: str, kind: AttributeKind) -> Any:
        """The dataset-wide denominator of :meth:`_spread`: the value range
        of a numeric attribute, else its number of distinct values."""
        if kind is AttributeKind.NUMERIC:
            full = dataset.column(attribute)
            return max(full) - min(full)
        return len(dataset.distinct(attribute))

    def _spread(
        self,
        dataset: Dataset,
        rows: Sequence[int],
        attribute: str,
        kind: AttributeKind,
        extent: Any,
    ) -> float:
        """Normalized range of the attribute within the partition
        (``extent`` from :meth:`_extent`)."""
        column = dataset.column(attribute)
        values = [column[r] for r in rows]
        if kind is AttributeKind.NUMERIC:
            if extent == 0:
                return 0.0
            return (max(values) - min(values)) / extent
        distinct = len(set(values))
        if extent <= 1:
            return 0.0
        return (distinct - 1) / (extent - 1)

    def _split(
        self, dataset: Dataset, rows: list[int], attribute: str, kind: AttributeKind
    ) -> tuple[list[int], list[int]] | None:
        """Median cut of the partition on one attribute, or ``None`` if no
        allowable cut exists."""
        column = dataset.column(attribute)

        if kind is AttributeKind.NUMERIC:
            ordered = sorted(rows, key=lambda r: column[r])
        else:
            ordered = sorted(rows, key=lambda r: str(column[r]))

        if self.relaxed:
            middle = len(ordered) // 2
            left, right = ordered[:middle], ordered[middle:]
        else:
            # Strict: the cut must fall between two distinct values so that
            # equal values stay together.
            middle = len(ordered) // 2
            median_value = column[ordered[middle]]
            left = [r for r in ordered if self._before(column[r], median_value, kind)]
            right = [r for r in ordered if not self._before(column[r], median_value, kind)]
        if len(left) >= self.k and len(right) >= self.k:
            if self._diverse_enough(dataset, left) and self._diverse_enough(
                dataset, right
            ):
                return left, right
        return None

    def _sensitive_position(self, dataset: Dataset) -> int:
        from ...datasets.schema import SchemaError

        attribute = self.sensitive_attribute
        if attribute is None:
            names = dataset.schema.sensitive_names
            if len(names) != 1:
                raise SchemaError(
                    "dataset does not have exactly one sensitive attribute; "
                    "pass sensitive_attribute explicitly"
                )
            attribute = names[0]
        return dataset.schema.index_of(attribute)

    def _diverse_enough(self, dataset: Dataset, rows: Sequence[int]) -> bool:
        """Whether a candidate side meets the optional l-diversity floor."""
        if self.l_diversity is None:
            return True
        position = self._sensitive_position(dataset)
        distinct = set()
        for row in rows:
            distinct.add(dataset[row][position])
            if len(distinct) >= self.l_diversity:
                return True
        return False

    @staticmethod
    def _before(value: Any, pivot: Any, kind: AttributeKind) -> bool:
        if kind is AttributeKind.NUMERIC:
            return value < pivot
        return str(value) < str(pivot)

    def partitions(
        self, dataset: Dataset, hierarchies: Mapping[str, Hierarchy] | None = None
    ) -> list[list[int]]:
        """The final multidimensional partitions (row-index lists)."""
        schema = dataset.schema
        qi = [(a.name, a.kind) for a in schema.quasi_identifiers]
        extents = {
            attribute: self._extent(dataset, attribute, kind)
            for attribute, kind in qi
        }
        finished: list[list[int]] = []
        pending: list[list[int]] = [list(range(len(dataset)))]
        while pending:
            rows = pending.pop()
            # Try attributes by decreasing spread until one admits a cut.
            by_spread = sorted(
                qi,
                key=lambda item: self._spread(
                    dataset, rows, item[0], item[1], extents[item[0]]
                ),
                reverse=True,
            )
            for attribute, kind in by_spread:
                cut = self._split(dataset, rows, attribute, kind)
                if cut is not None:
                    pending.extend(cut)
                    break
            else:
                finished.append(rows)
        return finished

    # -- release --------------------------------------------------------------

    def _summarize(
        self, dataset: Dataset, rows: Sequence[int], attribute: str, kind: AttributeKind
    ) -> Any:
        column = dataset.column(attribute)
        values = [column[r] for r in rows]
        if kind is AttributeKind.NUMERIC:
            low, high = min(values), max(values)
            return values[0] if low == high else Span(float(low), float(high))
        distinct = frozenset(values)
        if len(distinct) == 1:
            return values[0]
        return distinct

    def anonymize(
        self, dataset: Dataset, hierarchies: Mapping[str, Hierarchy] | None = None
    ) -> Anonymization:
        """Anonymize; ``hierarchies`` are unused (accepted for protocol
        uniformity — Mondrian needs no generalization hierarchies)."""
        if len(dataset) < self.k:
            raise ValueError(
                f"dataset of {len(dataset)} rows cannot be {self.k}-anonymized"
            )
        schema = dataset.schema
        qi = [(a.name, a.kind) for a in schema.quasi_identifiers]
        qi_cells: list[dict[str, Any]] = [dict() for _ in range(len(dataset))]
        for rows in self.partitions(dataset):
            summary = {
                attribute: self._summarize(dataset, rows, attribute, kind)
                for attribute, kind in qi
            }
            for row_index in rows:
                qi_cells[row_index] = dict(summary)
        return released_with_local_cells(dataset, qi_cells, name=self.name)
