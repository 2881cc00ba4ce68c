"""Shared infrastructure for disclosure control algorithms.

Provides the :class:`Anonymizer` protocol plus a :class:`RecodingWorkspace`
running on the columnar plane: per QI attribute the column is interned once
(:meth:`Dataset.columns`) and a level table is built per hierarchy
(:mod:`repro.hierarchy.codes`), after which evaluating a lattice node is a
handful of array gathers.  A k verdict (:meth:`RecodingWorkspace.
violation_count`, behind ``satisfies_k``) reads only the node's class-size
histogram, counted straight from its packed keys once per table: the
histogram does not depend on k, so it is kept in the table's columnar view
and read by every later search of any k on the same table.  That is what
makes full-lattice walks (Samarati, Incognito, Datafly, the optimal
search) and grids of them cheap.  Callers that need per-row labels or
representatives get a node partition instead; partitions are cached and —
when the level tables are *nested* over the column domain — derived
incrementally: a coarser node's partition is computed from a cached finer
one by re-keying one representative row per class instead of re-grouping
all rows.
"""

from __future__ import annotations

import abc
from array import array
from bisect import bisect_left
from collections import OrderedDict
from typing import Any, Hashable, Iterator, Mapping, Sequence

from ...datasets.dataset import Dataset
from ...hierarchy.base import Hierarchy
from ...hierarchy.codes import LevelTable, level_table
from ...hierarchy.lattice import Lattice, Node
from ...kernels import active as active_kernels, pack_columns
from ...obs import metrics as obs_metrics
from ..engine import Anonymization, AnonymizationError, recode_node


class AlgorithmError(ValueError):
    """Raised for invalid algorithm configurations."""


class Anonymizer(abc.ABC):
    """A disclosure control algorithm.

    Implementations are configured at construction (k, suppression budget,
    seeds, ...) and applied with :meth:`anonymize`.
    """

    name: str = "anonymizer"

    @abc.abstractmethod
    def anonymize(
        self, dataset: Dataset, hierarchies: Mapping[str, Hierarchy]
    ) -> Anonymization:
        """Produce an anonymized release of ``dataset``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


def check_k(k: int) -> int:
    """Validate a k-anonymity parameter."""
    if k < 1:
        raise AlgorithmError(f"k must be >= 1, got {k}")
    return k


def check_suppression_limit(limit: float) -> float:
    """Validate a suppression-fraction parameter."""
    if not 0.0 <= limit <= 1.0:
        raise AlgorithmError(f"suppression limit must be in [0,1], got {limit}")
    return limit


class _Partition:
    """One node's row partition: per-row labels, per-class sizes, and one
    representative row (the class's minimal row index) per class.

    All three are kernel arrays of the active backend (numpy ``ndarray``
    or ``array('q')``); labels follow the canonical sorted-rank numbering
    shared by both backends."""

    __slots__ = ("labels", "sizes", "reps", "group_count")

    def __init__(self, labels: Any, sizes: Any, reps: Any):
        self.labels = labels
        self.sizes = sizes
        self.reps = reps
        self.group_count = len(sizes)


class RecodingWorkspace:
    """Cached full-domain recoding machinery for one dataset + hierarchies.

    Caches, per QI attribute, the interned base codes and the hierarchy
    level tables, plus an LRU of recently built node partitions; neighbor
    partitions take the incremental coarsening path instead of re-grouping
    every row.  Verdicts and sizes-only costs bypass partitions and the
    LRU altogether (:meth:`class_sizes`).

    Verdicts read a node's class-size histogram from the table's
    ``ColumnarView.lattice_memo``, keyed by the projection's level tables
    and the node, so every workspace on the same dataset object (every
    search of a study grid, any k) counts each node at most once.
    """

    #: Partitions kept per attribute projection (int64 labels cost 8·N
    #: bytes each; 32 nodes of a 30k-row table is ~7.7 MB).
    _PARTITION_CACHE_SIZE = 32

    def __init__(self, dataset: Dataset, hierarchies: Mapping[str, Hierarchy]):
        self.dataset = dataset
        self.qi_names = dataset.schema.quasi_identifier_names
        if not self.qi_names:
            raise AnonymizationError("dataset has no quasi-identifier attributes")
        missing = set(self.qi_names) - set(hierarchies)
        if missing:
            raise AnonymizationError(f"missing hierarchies for {sorted(missing)}")
        self.hierarchies = {name: hierarchies[name] for name in self.qi_names}
        self.lattice = Lattice([self.hierarchies[name] for name in self.qi_names])
        self._view = dataset.columns()
        self._memo = self._view.lattice_memo
        self._kernels = active_kernels()
        self._tables: dict[str, LevelTable] = {}
        self._projections: dict[tuple[str, ...], tuple[LevelTable, ...]] = {}
        self._base_codes: dict[str, Any] = {}
        self._loss_columns: dict[tuple[str, int], tuple[float, ...]] = {}
        self._code_columns: dict[tuple[str, int], tuple[Any, int]] = {}
        self._partitions: dict[
            tuple[str, ...], OrderedDict[Node, _Partition]
        ] = {}
        #: Observable counters for tests/benchmarks: how many partitions
        #: were computed fresh, derived incrementally, served from cache,
        #: or dropped by the LRU bound.
        self.partition_stats = {"fresh": 0, "derived": 0, "hits": 0, "evictions": 0}

    def reset_stats(self) -> None:
        """Zero :attr:`partition_stats` (for per-study reporting).

        The cached partitions themselves are kept — only the counters
        reset, so two sequential studies sharing a workspace report
        independent counts instead of cumulative leakage.
        """
        for key in self.partition_stats:
            self.partition_stats[key] = 0

    # -- columnar primitives -------------------------------------------------

    def _table(self, attribute: str) -> LevelTable:
        table = self._tables.get(attribute)
        if table is None:
            table = level_table(
                self._view.column(attribute), self.hierarchies[attribute]
            )
            self._tables[attribute] = table
        return table

    def _projection(self, names: tuple[str, ...]) -> tuple[LevelTable, ...]:
        tables = self._projections.get(names)
        if tables is None:
            tables = tuple(self._table(name) for name in names)
            self._projections[names] = tables
        return tables

    def _base(self, attribute: str) -> Any:
        codes = self._base_codes.get(attribute)
        if codes is None:
            codes = self._kernels.from_code_buffer(
                self._view.column(attribute).codes
            )
            self._base_codes[attribute] = codes
        return codes

    def loss_column(self, attribute: str, level: int) -> tuple[float, ...]:
        """Per-row LM loss of the attribute at ``level`` (cached)."""
        key = (attribute, level)
        if key not in self._loss_columns:
            built = self._table(attribute).level(level)
            loss = built.loss
            self._loss_columns[key] = tuple(
                loss[code] for code in self._view.column(attribute).codes
            )
        return self._loss_columns[key]

    def code_column(self, attribute: str, level: int) -> tuple[Any, int]:
        """The generalized column as dense integer codes plus code count
        (cached) — one gather through the level table."""
        key = (attribute, level)
        if key not in self._code_columns:
            built = self._table(attribute).level(level)
            codes = self._kernels.gather(built.gather, self._base(attribute))
            self._code_columns[key] = (codes, built.count)
        return self._code_columns[key]

    def distinct_count(self, attribute: str, level: int) -> int:
        """Distinct released values of the column at ``level`` (O(1) —
        every base code occurs in the column, so this is the level-table
        code count).  Sweeney's Datafly heuristic reads this per node."""
        return self._table(attribute).level(level).count

    def nested_neighbors(
        self,
        node: Node,
        attributes: Sequence[str] | None = None,
        *,
        upward: bool,
    ) -> Iterator[Node]:
        """``node``'s one-level generalizations (``upward``) or
        specializations, in attribute order, along the attributes of the
        projection whose level table is nested.

        Raising a nested attribute one level only merges whole classes, so
        no row's class shrinks: a node violates k on at least as many rows
        as such a generalization.  That is the generalization property the
        lattice searches infer verdicts by.  Across a non-nested attribute
        a class can split, and nothing follows.
        """
        names = tuple(attributes) if attributes is not None else self.qi_names
        step = 1 if upward else -1
        for index, (table, level) in enumerate(zip(self._projection(names), node)):
            moved = level + step
            if 0 <= moved <= table.height and table.nested():
                yield node[:index] + (moved,) + node[index + 1 :]

    # -- node partitions -----------------------------------------------------

    def partition(
        self, node: Node, attributes: Sequence[str] | None = None
    ) -> _Partition:
        """The row partition at ``node`` (cached; derived incrementally
        from a cached finer node when the level tables allow it)."""
        names = tuple(attributes) if attributes is not None else self.qi_names
        self._check_node_arity(node, names)
        node = tuple(node)
        cache = self._partitions.setdefault(names, OrderedDict())
        cached = cache.get(node)
        if cached is not None:
            cache.move_to_end(node)
            self.partition_stats["hits"] += 1
            obs_metrics().inc("workspace.partition.hit")
            return cached
        partition = self._derive_partition(node, names, cache)
        if partition is None:
            keys, _ = self._packed_keys(node, names)
            reps, labels, count = self._kernels.group(keys)
            partition = _Partition(labels, self._kernels.bincount(labels, count), reps)
            self.partition_stats["fresh"] += 1
            obs_metrics().inc("workspace.partition.fresh")
        else:
            self.partition_stats["derived"] += 1
            obs_metrics().inc("workspace.partition.derived")
        cache[node] = partition
        if len(cache) > self._PARTITION_CACHE_SIZE:
            cache.popitem(last=False)
            self.partition_stats["evictions"] += 1
            obs_metrics().inc("workspace.partition.evict")
        return partition

    def _packed_keys(
        self, node: Node, names: tuple[str, ...], rows: Any = None
    ) -> tuple[Any, int]:
        """Unsorted mixed-radix keys of ``rows`` (default: all, packed
        from the cached :meth:`code_column` arrays) at ``node``, with their
        exclusive bound."""
        kernels = self._kernels
        columns: list[tuple[Any, int]] = []
        for name, level in zip(names, node):
            if rows is None:
                columns.append(self.code_column(name, level))
            else:
                built = self._table(name).level(level)
                base = kernels.gather(self._base(name), rows)
                columns.append((kernels.gather(built.gather, base), built.count))
        keys, bound = pack_columns(kernels, columns)
        if keys is None:
            raise AnonymizationError("grouping requires at least one attribute")
        return keys, bound

    def _derive_partition(
        self,
        node: Node,
        names: tuple[str, ...],
        cache: "OrderedDict[Node, _Partition]",
    ) -> _Partition | None:
        """Coarsen the best cached finer partition, if any is usable.

        A cached node is usable when it is dominated by ``node`` (every
        attribute at most as generalized) and every attribute whose level
        increases has a *nested* level table over the column domain —
        otherwise equal classes at the finer node need not merge cleanly
        and the derivation would be wrong (see ``LevelTable.nested``).
        """
        best: tuple[Node, _Partition] | None = None
        for cached_node, cached_partition in cache.items():
            if not all(c <= n for c, n in zip(cached_node, node)):
                continue
            usable = all(
                c == n or self._table(name).nested()
                for name, c, n in zip(names, cached_node, node)
            )
            if not usable:
                continue
            if best is None or cached_partition.group_count < best[1].group_count:
                best = (cached_node, cached_partition)
        if best is None:
            return None
        kernels = self._kernels
        parent = best[1]
        # Re-key one representative row per parent class at the new node.
        keys, _ = self._packed_keys(node, names, parent.reps)
        child_of_group, count = kernels.densify(keys)
        labels = kernels.gather(child_of_group, parent.labels)
        sizes = kernels.fold_add(child_of_group, parent.sizes, count)
        reps = kernels.fold_min(
            child_of_group, parent.reps, count, fill=len(self.dataset)
        )
        return _Partition(labels, sizes, reps)

    # -- frequency sets ------------------------------------------------------

    def group_sizes(
        self, node: Node, attributes: Sequence[str] | None = None
    ) -> dict[Hashable, int]:
        """Frequency set: generalized-QI-tuple -> row count at ``node``.

        ``attributes`` restricts the projection (Incognito's sub-lattices);
        ``node`` then gives levels for exactly those attributes, in order.
        Keys are decoded from one representative row per class; dict order
        is first occurrence in row order, as the row plane produced.
        """
        names = tuple(attributes) if attributes is not None else self.qi_names
        partition = self.partition(node, names)
        levels = [self._table(name).level(level) for name, level in zip(names, node)]
        bases = [self._base(name) for name in names]
        counts: dict[Hashable, int] = {}
        for group in self._kernels.argsort(partition.reps):
            row = partition.reps[group]
            key = tuple(
                built.values[base[row]] for built, base in zip(levels, bases)
            )
            counts[key] = int(partition.sizes[group])
        return counts

    def class_sizes(
        self, node: Node, attributes: Sequence[str] | None = None
    ) -> Any:
        """Equivalence class sizes at ``node`` (a kernel array).

        Equal to ``partition(node).sizes``, in the same canonical
        sorted-key order, but counted straight from the packed keys of the
        cached code columns: no per-row labels, no representatives, no
        partition cache entry.  This is all a sizes-only cost reads; a k
        verdict reads the node's memoized histogram of these sizes
        (:meth:`violation_count`) and counts them only on a miss.
        """
        names = tuple(attributes) if attributes is not None else self.qi_names
        self._check_node_arity(node, names)
        obs_metrics().inc("workspace.sizes")
        keys, bound = self._packed_keys(node, names)
        return self._kernels.key_sizes(keys, bound)

    def class_size_vector(
        self, node: Node, attributes: Sequence[str] | None = None
    ) -> Any:
        """Per-row equivalence class size at ``node`` (a kernel array)."""
        names = tuple(attributes) if attributes is not None else self.qi_names
        partition = self.partition(node, names)
        return self._kernels.gather(partition.sizes, partition.labels)

    def _check_node_arity(self, node: Node, names: Sequence[str]) -> None:
        if len(node) != len(names):
            raise AnonymizationError(
                f"node {node!r} has {len(node)} levels for {len(names)} attributes"
            )

    def violating_rows(
        self, node: Node, k: int, attributes: Sequence[str] | None = None
    ) -> list[int]:
        """Rows in equivalence classes smaller than ``k`` at ``node``."""
        names = tuple(attributes) if attributes is not None else self.qi_names
        self._check_node_arity(node, names)
        per_row = self.class_size_vector(node, names)
        return self._kernels.flatnonzero_less(per_row, k)

    def _histogram(
        self, node: Node, attributes: Sequence[str] | None
    ) -> "array[int]":
        """The node's class-size histogram, from the table's shared memo
        (counted by :meth:`class_sizes` on a miss)."""
        names = tuple(attributes) if attributes is not None else self.qi_names
        self._check_node_arity(node, names)
        key = (self._projection(names), tuple(node))
        histogram = self._memo.get(key)
        if histogram is None:
            histogram = self._kernels.size_histogram(self.class_sizes(node, names))
            self._memo[key] = histogram
        else:
            obs_metrics().inc("workspace.sizes.reused")
        return histogram

    def violation_count(
        self, node: Node, k: int, attributes: Sequence[str] | None = None
    ) -> int:
        """Number of rows in classes smaller than ``k`` at ``node``."""
        # ``histogram`` is ``size_histogram``'s: m distinct sizes, then the
        # rows and the classes below each, read at the first size >= k.
        histogram = self._histogram(node, attributes)
        distinct = (len(histogram) - 2) // 3
        return histogram[distinct + bisect_left(histogram, k, 0, distinct)]

    def unsafe_class_count(
        self, node: Node, k: int, attributes: Sequence[str] | None = None
    ) -> int:
        """Number of classes smaller than ``k`` at ``node``."""
        histogram = self._histogram(node, attributes)
        distinct = (len(histogram) - 2) // 3
        return histogram[2 * distinct + 1 + bisect_left(histogram, k, 0, distinct)]

    def satisfies_k(
        self,
        node: Node,
        k: int,
        max_suppressed: int = 0,
        attributes: Sequence[str] | None = None,
    ) -> bool:
        """Whether ``node`` is k-anonymous after suppressing at most
        ``max_suppressed`` rows."""
        return self.violation_count(node, k, attributes) <= max_suppressed

    def _level_loss(self, attribute: str, level: int) -> float:
        """``sum(loss_column(attribute, level))``, summed in row order once
        per table (memoized in the table's shared memo)."""
        table = self._table(attribute)
        key = (table, level)
        total = self._memo.get(key)
        if total is None:
            loss = table.level(level).loss
            total = sum(map(loss.__getitem__, self._view.column(attribute).codes))
            self._memo[key] = total
        return total

    def node_loss(self, node: Node) -> float:
        """Total LM loss of the recoding at ``node`` (without suppression)."""
        return sum(
            self._level_loss(name, level) for name, level in zip(self.qi_names, node)
        )

    def apply(self, node: Node, k: int, name: str | None = None) -> Anonymization:
        """Materialize the recoding at ``node``, suppressing classes < k."""
        suppress = self.violating_rows(node, k) if k > 1 else []
        return recode_node(
            self.dataset, self.hierarchies, node, suppress=suppress, name=name
        )
