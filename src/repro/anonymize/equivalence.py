"""Equivalence classes of an anonymized data set.

An equivalence class is a maximal set of rows sharing the same generalized
quasi-identifier tuple.  Class sizes are the raw material of the paper's
running privacy property ("size of the equivalence class to which a tuple
belongs", Section 3).

Two construction paths exist:

* one hashable key per row (the generalized QI tuple) — the row-plane
  grouping the tests keep as their oracle;
* precomputed integer group labels via
  :meth:`EquivalenceClasses.from_labels`, resolving the human-facing class
  keys from one representative row per class — how every
  :class:`~repro.anonymize.engine.Anonymization` groups its codes.

Both yield the identical partition contract: classes ordered by first
occurrence, members in row order.  Per-column histograms
(:meth:`value_counts`) are memoized by column identity, so repeated
l-diversity / t-closeness measurements over the same release don't redo
the grouping — :meth:`~repro.datasets.dataset.Dataset.column` returns a
memoized tuple precisely so that this cache can hit.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Sequence

from ..kernels import active as active_kernels


class EquivalenceClasses:
    """Partition of row indices by generalized QI tuple.

    Parameters
    ----------
    keys:
        One hashable grouping key per row (typically the generalized QI
        tuple), in row order.
    """

    __slots__ = (
        "_classes",
        "_class_of",
        "_keys",
        "_sizes",
        "_class_sizes",
        "_minimum",
        "_histogram_cache",
    )

    def __init__(self, keys: Sequence[Hashable]):
        groups: dict[Hashable, list[int]] = {}
        for row_index, key in enumerate(keys):
            groups.setdefault(key, []).append(row_index)
        # Classes ordered by first occurrence, members in row order.
        self._init_from_groups(
            tuple(tuple(members) for members in groups.values()),
            len(keys),
            tuple(groups.keys()),
        )

    @classmethod
    def from_labels(
        cls,
        labels: Sequence[int],
        key_of_row: Callable[[int], Hashable] | None = None,
    ) -> "EquivalenceClasses":
        """Build the partition from precomputed group labels.

        ``labels`` is one hashable group label per row (the columnar
        plane's packed mixed-radix codes); rows with equal labels share a
        class.  ``key_of_row`` maps a representative row index to the
        class's public key (the generalized QI tuple) — resolved once per
        class, from its first member, so label grouping never has to
        materialize row tuples.  Without it the labels themselves serve as
        keys.
        """
        groups: dict[int, list[int]] = {}
        for row_index, label in enumerate(labels):
            groups.setdefault(label, []).append(row_index)
        classes = tuple(tuple(members) for members in groups.values())
        if key_of_row is None:
            keys: tuple[Hashable, ...] = tuple(groups.keys())
        else:
            keys = tuple(key_of_row(members[0]) for members in classes)
        instance = cls.__new__(cls)
        instance._init_from_groups(classes, len(labels), keys)
        return instance

    def _init_from_groups(
        self,
        classes: tuple[tuple[int, ...], ...],
        row_count: int,
        keys: tuple[Hashable, ...],
    ) -> None:
        self._classes = classes
        self._keys = keys
        class_of = [0] * row_count
        for class_index, members in enumerate(classes):
            for row_index in members:
                class_of[row_index] = class_index
        self._class_of: tuple[int, ...] = tuple(class_of)
        self._sizes: list[int] | None = None
        self._class_sizes: list[int] | None = None
        self._minimum: int | None = None
        # Per-column histogram memo: id(column) -> (column ref, histograms).
        # The column reference is stored so its id cannot be recycled.
        self._histogram_cache: dict[int, tuple[Sequence[Any], list[dict[Any, int]]]] = {}

    def __len__(self) -> int:
        return len(self._classes)

    def __iter__(self):
        return iter(self._classes)

    def __getitem__(self, class_index: int) -> tuple[int, ...]:
        return self._classes[class_index]

    @property
    def row_count(self) -> int:
        """Number of rows in the partitioned data set."""
        return len(self._class_of)

    def key_of_class(self, class_index: int) -> Hashable:
        """The shared generalized QI tuple of a class."""
        return self._keys[class_index]

    def class_of(self, row_index: int) -> int:
        """Index of the class containing the row."""
        return self._class_of[row_index]

    def class_labels(self) -> tuple[int, ...]:
        """The class index of every row, in row order."""
        return self._class_of

    def members_of(self, row_index: int) -> tuple[int, ...]:
        """All rows in the same class as ``row_index`` (including itself)."""
        return self._classes[self._class_of[row_index]]

    def size_of(self, row_index: int) -> int:
        """Size of the class containing the row."""
        return len(self.members_of(row_index))

    def sizes(self) -> list[int]:
        """Per-row class sizes, in row order — the paper's equivalence class
        size property vector."""
        if self._sizes is None:
            per_class = self.class_sizes()
            self._sizes = [per_class[c] for c in self._class_of]
        return list(self._sizes)

    def class_sizes(self) -> list[int]:
        """Per-class sizes, in class order."""
        if self._class_sizes is None:
            self._class_sizes = [len(members) for members in self._classes]
        return list(self._class_sizes)

    def minimum_size(self) -> int:
        """The k of k-anonymity: size of the smallest class."""
        if not self._classes:
            return 0
        if self._minimum is None:
            self._minimum = min(self.class_sizes())
        return self._minimum

    def value_counts(
        self, values: Sequence[Any]
    ) -> list[dict[Any, int]]:
        """Per-class histograms of a column's values (for diversity models).

        ``values`` is the full column in row order; returns one value->count
        dict per class, in class order, keyed and ordered as a dict pass over
        the class's rows builds it (entropy l-diversity iterates the
        values in that order): the exact codes are counted per class in
        first-occurrence order, and equal keys (``7`` beside ``7.0``) summed
        under the class's first one.  Histograms are memoized per column
        *identity* (``Dataset.column`` returns a memoized tuple, so every
        consumer of the same release shares one grouping pass); the dicts
        are shared — callers must not mutate them.
        """
        if len(values) != self.row_count:
            raise ValueError(
                f"expected {self.row_count} values, got {len(values)}"
            )
        cached = self._histogram_cache.get(id(values))
        if cached is not None and cached[0] is values:
            return cached[1]
        kernels = active_kernels()
        codes, decode = kernels.intern(values)
        grouped = kernels.grouped_value_counts(
            kernels.asarray(self._class_of),
            len(self._classes),
            kernels.from_code_buffer(codes),
        )
        histograms = []
        for per_class in grouped:
            counts: dict[Any, int] = {}
            for code, count in per_class:
                value = decode[code]
                counts[value] = counts.get(value, 0) + count
            histograms.append(counts)
        self._histogram_cache[id(values)] = (values, histograms)
        return histograms

    def sensitive_value_counts(self, values: Sequence[Any]) -> list[int]:
        """Per-row count of the row's own sensitive value within its class —
        the property underlying l-diversity in Section 3 of the paper."""
        histograms = self.value_counts(values)
        return [
            histograms[self._class_of[row_index]][values[row_index]]
            for row_index in range(self.row_count)
        ]
