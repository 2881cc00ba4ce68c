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
:mod:`repro.datasets.columnar`) are ranked in the cut order — numeric
attributes by value, categorical ones by ``str`` — and values that order
as equal share a rank.  A strict cut is then the first
position of the median's rank in the partition's sorted ranks, and a
partition's rows are sorted stably by rank, so each side keeps the
incoming row order among tied values.

The split runs **one tree level at a time** over kernel arrays
(:mod:`repro.kernels` segment ops).  Every partition is a segment of one
row permutation.  A pass computes all active partitions' spreads at once:
a segmented min/max of the rank codes for numeric QIs, turned into
``(max - min) / extent`` through each rank's first value (values sharing a
rank are equal, so they give the same float wherever ints beside floats
stay within 2**53), and a segmented distinct count of equality codes for
categorical QIs (the exact codes folded over their decode table,
:meth:`~repro.datasets.columnar.ColumnCodes.equality_codes`), which the
l-diversity floor counts on the sensitive column too.  Each partition then
tries its attributes in stable spread order; trying an attribute is one
stable segmented sort by its rank over all active partitions.  Accepted
cuts are applied together and sides of at least 2k rows go on to the next
level.  The partitions come out in the order a depth-first split that
visits right halves first finishes them, each with its rows in that
split's order.  The release names one summary row per partition and
labels every row with its partition
(:func:`~repro.anonymize.engine.released_from_classes`).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, Mapping

from ...datasets.dataset import Dataset
from ...datasets.schema import AttributeKind, SchemaError
from ...hierarchy.base import Hierarchy
from ...hierarchy.numeric import Span
from ...kernels import active as active_kernels
from ..engine import Anonymization, released_from_classes
from .base import Anonymizer, check_k


def _rank_codes(
    dataset: Dataset, attribute: str, numeric: bool, kernels: Any
) -> tuple[Any, list[Any]]:
    """Per-row rank of one column in Mondrian's cut order, as a kernel
    array, and each rank's first value.

    Numeric values rank by value, categorical ones by ``str(value)``;
    values equal under that order share a rank.  Ranking runs once per
    exactly interned value, then gathers per row.
    """
    column = dataset.columns().column(attribute)
    codes, decode = column.codes, column.decode
    keys = decode if numeric else [str(value) for value in decode]
    rank_of = [0] * len(keys)
    firsts: list[Any] = []
    previous: Any = None
    for code in sorted(range(len(keys)), key=keys.__getitem__):
        key = keys[code]
        if not firsts or previous < key:
            firsts.append(decode[code])
            previous = key
        rank_of[code] = len(firsts) - 1
    return kernels.gather(rank_of, kernels.from_code_buffer(codes)), firsts


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

    def _sensitive_codes(self, dataset: Dataset) -> Any:
        """The sensitive column's equality codes (a kernel array) the
        l-diversity floor counts, or ``None`` without a floor.

        Raises :class:`SchemaError` when the attribute cannot be resolved.
        """
        if self.l_diversity is None:
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
        return dataset.columns().column(attribute).equality_codes()[0]

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
        kernels = active_kernels()
        sensitive = self._sensitive_codes(dataset)
        # Per QI: (spread codes, rank codes, extent, each rank's first
        # value).  Numeric spreads read the min/max rank's value;
        # categorical ones count equality codes, as ``len(set(values))``
        # does, and have no rank values.
        qi: list[tuple[Any, Any, Any, list[Any] | None]] = []
        for attribute in dataset.schema.quasi_identifiers:
            name = attribute.name
            numeric = attribute.kind is AttributeKind.NUMERIC
            if numeric:
                values = dataset.column(name)
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
                rank, firsts = _rank_codes(dataset, name, numeric, kernels)
                qi.append((rank, rank, extent, firsts))
            else:
                codes, count = dataset.columns().column(name).equality_codes()
                rank, _ = _rank_codes(dataset, name, numeric, kernels)
                qi.append((codes, rank, count, None))

        size = len(dataset)
        perm = kernels.asarray(range(size))
        # Every segment of ``perm`` is a partition, in tree order left to
        # right; ``active`` ones (>= 2k rows, some cut may apply) are split
        # one tree level per pass, the rest are final.
        active: list[tuple[int, int]] = []
        final: list[tuple[int, int]] = []
        (active if qi and size >= 2 * self.k else final).append((0, size))
        while active:
            active, final_here = self._split_level(kernels, qi, sensitive, perm, active)
            final += final_here
        rows = kernels.tolist(perm)
        # The last segment first: the order a depth-first split that
        # visits right halves first finishes partitions in.
        return [rows[start:start + count] for start, count in sorted(final, reverse=True)]

    def _split_level(
        self,
        kernels: Any,
        qi: list[tuple[Any, Any, Any, list[Any] | None]],
        sensitive: Any,
        perm: Any,
        active: list[tuple[int, int]],
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Cut every active segment of ``perm`` once, in place.

        Each segment tries its attributes by decreasing spread (stable,
        as ``sorted(..., reverse=True)``) until one admits a cut that
        leaves both sides with k rows (and l distinct sensitive codes);
        a strict cut falls before the median's rank, a relaxed one at
        the middle.  A cut segment is sorted stably by rank, so each side
        keeps the incoming row order among tied values.  Returns the
        sides that may be cut again and the segments that are final.
        """
        k, relaxed = self.k, self.relaxed
        sizes = [count for _, count in active]
        positions = kernels.ranges([start for start, _ in active], sizes)
        rows = kernels.gather(perm, positions)
        starts = list(accumulate(sizes, initial=0))[:-1]
        segments = kernels.segments(starts, len(rows))

        spreads = []
        for codes, _, extent, firsts in qi:
            if firsts is not None and extent != 0:
                low, high = kernels.segment_bounds(kernels.gather(codes, rows), segments)
                spreads.append([
                    (firsts[top] - firsts[bottom]) / extent
                    for bottom, top in zip(low, high)
                ])
            elif firsts is None and extent > 1:
                distinct = kernels.segment_distinct(kernels.gather(codes, rows), segments)
                spreads.append([(count - 1) / (extent - 1) for count in distinct])
            else:
                spreads.append([0.0] * len(sizes))

        trials: dict[int, tuple[Any, list[int], list[bool]]] = {}

        def trial(index: int) -> tuple[Any, list[int], list[bool]]:
            # One stable in-segment sort by the attribute's rank, for
            # every segment at once; ``allowed[s]`` says whether its cut
            # keeps both sides at k rows and l sensitive codes.
            order, below = kernels.segment_split(kernels.gather(qi[index][1], rows), segments)
            cuts = [count // 2 for count in sizes] if relaxed else below
            allowed = [k <= cut <= count - k for cut, count in zip(cuts, sizes)]
            if sensitive is not None and any(allowed):
                halves = []
                for start, cut, count in zip(starts, cuts, sizes):
                    halves += (start, start + min(max(cut, 1), count - 1))
                distinct = kernels.segment_distinct(
                    kernels.gather(sensitive, kernels.gather(rows, order)),
                    kernels.segments(halves, len(rows)),
                )
                floor = self.l_diversity
                allowed = [
                    ok and distinct[2 * s] >= floor and distinct[2 * s + 1] >= floor
                    for s, ok in enumerate(allowed)
                ]
            return order, cuts, allowed

        by_spread = [
            sorted(range(len(qi)), key=row.__getitem__, reverse=True)
            for row in zip(*spreads)
        ]
        choice = [-1] * len(sizes)
        undecided = range(len(sizes))
        for place in range(len(qi)):
            left = []
            for segment in undecided:
                index = by_spread[segment][place]
                if index not in trials:
                    trials[index] = trial(index)
                if trials[index][2][segment]:
                    choice[segment] = index
                else:
                    left.append(segment)
            undecided = left

        if max(choice) < 0:
            return [], active
        orders = [
            trials[index][0] if index in trials else None for index in range(len(qi))
        ]
        kernels.scatter(
            perm,
            positions,
            kernels.gather(rows, kernels.segment_choose(orders, choice, segments)),
        )
        next_active: list[tuple[int, int]] = []
        final: list[tuple[int, int]] = []
        for segment, ((start, count), index) in enumerate(zip(active, choice)):
            if index < 0:
                final.append((start, count))
                continue
            cut = trials[index][1][segment]
            for side in ((start, cut), (start + cut, count - cut)):
                (next_active if side[1] >= 2 * k else final).append(side)
        return next_active, final

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
            (dataset.column(a.name), a.kind is AttributeKind.NUMERIC)
            for a in dataset.schema.quasi_identifiers
        ]
        labels = [0] * len(dataset)
        summaries: list[tuple[Any, ...]] = []
        for label, rows in enumerate(self.partitions(dataset)):
            # One summary per partition: each cell is one of the
            # partition's own objects (or a Span/frozenset of them), taken
            # in partition order.
            summary = []
            for column, numeric in columns:
                values = list(map(column.__getitem__, rows))
                if numeric:
                    low, high = min(values), max(values)
                    summary.append(
                        values[0] if low == high else Span(float(low), float(high))
                    )
                else:
                    distinct = frozenset(values)
                    summary.append(values[0] if len(distinct) == 1 else distinct)
            summaries.append(tuple(summary))
            for row in rows:
                labels[row] = label
        return released_from_classes(dataset, labels, summaries, name=self.name)
