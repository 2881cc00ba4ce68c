"""The columnar-plane kernel operations, in numpy and pure-python form.

Every operation the measurement plane needs is expressed over dense int64
code arrays:

* ``gather`` — fancy-index a (tiny) per-level table over per-row codes;
* ``pack`` — one mixed-radix step ``combined * radix + codes``; driven
  over a column list by :func:`pack_columns`;
* ``group`` / ``densify`` — label rows by distinct packed value;
* ``bincount`` / ``fold_add`` / ``fold_min`` — per-group sizes and
  representative rows, fresh or folded through a coarsening map;
* ``key_sizes`` — per-group sizes straight from packed keys, without
  labelling rows: all a k-anonymity verdict reads;
* ``size_histogram`` — class sizes folded to their distinct values with
  running row and class totals: the k-independent record a lattice node's
  k verdicts read (see ``PythonKernels.size_histogram``);
* ``grouped_value_counts`` — per-class value histograms (the raw material
  of l-diversity / t-closeness) from one grouping pass;
* ``segments`` / ``segment_bounds`` / ``segment_distinct`` /
  ``segment_split`` / ``segment_choose``, with ``ranges`` / ``scatter`` —
  per-segment reductions and stable in-segment sorts of non-negative
  codes over a *segmentation*: consecutive non-empty segments given by
  their ascending start offsets (the first 0), built once by ``segments``.
  Mondrian's level-at-a-time split runs on them;
* ``intern`` — exact first-occurrence code interning (equal values of
  another type or ``repr`` keep codes of their own); both backends share
  one dict pass (:func:`intern_values`), which beats a vectorized
  ``np.unique`` on every column shape measured.

**Canonical labels.**  Both backends number group labels by the *sorted
rank* of the packed value (what ``np.unique(return_inverse=True)``
produces) and report one representative per group: the group's minimal row
index.  The pure backend reproduces this exactly, so partitions, labels,
sizes and value counts are identical across backends — not merely
isomorphic — which is what the kernel-equivalence tests assert.

**One sort per partition.**  :func:`pack_columns` packs without sorting,
densifying the running key only when its tracked bound (the radix product)
would pass int64.  A partition thus sorts once, in ``group``/``densify``,
with the labels of densifying after every step: both keys order rows
lexicographically over the column codes, so their sorted ranks coincide.
``pack_columns`` hands its bound back with the keys, so ``key_sizes`` can
count with a ``bincount`` wherever the bound is at most the row count and
fall back to a sorted count only above it: no allocation grows past N.

Kernel arrays are opaque to callers: ``numpy.ndarray`` under the numpy
backend, ``array('q')`` under the pure backend.  Callers index them and
pass them back to kernel ops, nothing more; crossing a process boundary
or feeding a public API happens via ``tolist``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, chain
from typing import Any, Sequence


class PythonKernels:
    """Pure-stdlib kernel backend over ``array('q')`` code arrays.

    Always importable; selected automatically when numpy is missing.  The
    implementations mirror the numpy backend's observable semantics
    operation for operation (see the module docstring's canonical-label
    contract).
    """

    name = "python"
    is_numpy = False
    #: The backend's array module, for callers (generators, benchmarks)
    #: that vectorize beyond the kernel surface; ``None`` here.
    numpy = None

    # -- construction -------------------------------------------------------

    def from_code_buffer(self, codes: "array[int]") -> "array[int]":
        """View an interned ``array('q')`` code buffer as a kernel array.

        Zero-copy in both backends; callers must treat the result as
        read-only (it aliases the interned column).
        """
        return codes

    def asarray(self, values: Sequence[int]) -> "array[int]":
        """A kernel array from a python int sequence."""
        return array("q", values)

    def tolist(self, values: Sequence[int]) -> list[int]:
        """Plain python ints (for public APIs and process boundaries)."""
        return [int(value) for value in values]

    # -- gathers ------------------------------------------------------------

    def gather(self, table: Sequence[int], indices: Sequence[int]) -> "array[int]":
        """``table[indices]``: a fresh, writable gathered array."""
        return array("q", map(table.__getitem__, indices))

    def scatter_fill(
        self, values: "array[int]", rows: Sequence[int], fill: int
    ) -> None:
        """``values[rows] = fill`` in place (``values`` from :meth:`gather`)."""
        for row in rows:
            values[row] = fill

    # -- mixed-radix packing and grouping ------------------------------------

    def pack(self, combined: Sequence[int], radix: int, codes: Sequence[int]) -> "array[int]":
        """One packing step ``combined * radix + codes`` (no densify)."""
        return array(
            "q", [previous * radix + code for previous, code in zip(combined, codes)]
        )

    def densify(self, combined: Sequence[int]) -> tuple["array[int]", int]:
        """Canonical labels (sorted rank of value) plus the group count."""
        rank = {value: position for position, value in enumerate(sorted(set(combined)))}
        return array("q", map(rank.__getitem__, combined)), len(rank)

    def group(
        self, combined: Sequence[int]
    ) -> tuple["array[int]", "array[int]", int]:
        """``(reps, labels, count)`` of the grouping by packed value.

        ``labels`` are canonical sorted-rank labels; ``reps[g]`` is the
        minimal row index of group ``g`` (its first occurrence in row
        order) — the invariant the incremental coarsening path relies on.
        """
        first: dict[int, int] = {}
        for row, value in enumerate(combined):
            if value not in first:
                first[value] = row
        ordered = sorted(first)
        rank = {value: position for position, value in enumerate(ordered)}
        labels = array("q", map(rank.__getitem__, combined))
        reps = array("q", (first[value] for value in ordered))
        return reps, labels, len(ordered)

    # -- per-group reductions ------------------------------------------------

    def key_sizes(self, keys: Sequence[int], bound: int) -> "array[int]":
        """Group sizes of packed ``keys`` (values in ``range(bound)``) in
        sorted-key order: ``bincount(group(keys)[1], count)`` without the
        labels."""
        if bound <= len(keys):
            counts = [0] * bound
            for key in keys:
                counts[key] += 1
            return array("q", filter(None, counts))
        counts = Counter(keys)
        return array("q", map(counts.__getitem__, sorted(counts)))

    def bincount(self, labels: Sequence[int], count: int) -> "array[int]":
        """Per-group sizes of ``labels`` (values in ``range(count)``)."""
        sizes = array("q", bytes(8 * count))
        for label in labels:
            sizes[label] += 1
        return sizes

    def fold_add(
        self, child_of_group: Sequence[int], parent_sizes: Sequence[int], count: int
    ) -> "array[int]":
        """Child-group sizes: parent sizes summed through the coarsening map."""
        sizes = array("q", bytes(8 * count))
        for child, size in zip(child_of_group, parent_sizes):
            sizes[child] += size
        return sizes

    def fold_min(
        self,
        child_of_group: Sequence[int],
        parent_values: Sequence[int],
        count: int,
        fill: int,
    ) -> "array[int]":
        """Child-group minima of parent values through the coarsening map."""
        minima = array("q", [fill]) * count
        for child, value in zip(child_of_group, parent_values):
            if value < minima[child]:
                minima[child] = value
        return minima

    # -- scans ---------------------------------------------------------------

    def argsort(self, values: Sequence[int]) -> list[int]:
        """Indices that sort ``values`` ascending (values are distinct)."""
        return sorted(range(len(values)), key=values.__getitem__)

    def flatnonzero_less(self, values: Sequence[int], bound: int) -> list[int]:
        """Indices whose value is strictly below ``bound``."""
        return [index for index, value in enumerate(values) if value < bound]

    def sum_less(self, values: Sequence[int], bound: int) -> int:
        """Sum of the values strictly below ``bound``."""
        return sum(value for value in values if value < bound)

    def size_histogram(self, sizes: Sequence[int]) -> "array[int]":
        """Class ``sizes`` as one ``array('q')`` of ``3m + 2`` ints.

        For the ``m`` distinct sizes ``s_1 < .. < s_m``, occurring
        ``c_1 .. c_m`` times: the sizes, then the ``m + 1`` running sums of
        ``s_j * c_j`` (rows in the classes below each size, from 0), then
        the ``m + 1`` running sums of ``c_j`` (classes below each size,
        from 0).  Under ``i`` sizes below k, ``[m + i]`` is the rows and
        ``[2m + 1 + i]`` the classes smaller than k.
        """
        counts = Counter(sizes)
        distinct = sorted(counts)
        multiplicity = [counts[size] for size in distinct]
        rows = accumulate(map(int.__mul__, distinct, multiplicity), initial=0)
        classes = accumulate(multiplicity, initial=0)
        return array("q", chain(distinct, rows, classes))

    # -- segments ------------------------------------------------------------

    def segments(self, starts: Sequence[int], size: int) -> list[tuple[int, int]]:
        """The segmentation of a length-``size`` array whose segments start
        at ``starts`` (ascending, the first 0, none empty): an opaque value
        the ``segment_*`` ops take, built once per segmentation.  Here the
        ``(start, end)`` pairs."""
        return list(zip(starts, [*starts[1:], size]))

    def ranges(self, starts: Sequence[int], sizes: Sequence[int]) -> "array[int]":
        """``range(start, start + size)`` for each pair, concatenated."""
        positions = array("q")
        for start, size in zip(starts, sizes):
            positions.extend(range(start, start + size))
        return positions

    def scatter(
        self, values: "array[int]", positions: Sequence[int], source: Sequence[int]
    ) -> None:
        """``values[positions] = source`` in place."""
        for position, value in zip(positions, source):
            values[position] = value

    def segment_bounds(
        self, values: Sequence[int], segments: list[tuple[int, int]]
    ) -> tuple[list[int], list[int]]:
        """``(minima, maxima)`` of each segment of ``values``."""
        minima, maxima = [], []
        for start, end in segments:
            segment = values[start:end]
            minima.append(min(segment))
            maxima.append(max(segment))
        return minima, maxima

    def segment_distinct(
        self, codes: Sequence[int], segments: list[tuple[int, int]]
    ) -> list[int]:
        """Number of distinct codes in each segment."""
        return [len(set(codes[start:end])) for start, end in segments]

    def segment_split(
        self, values: Sequence[int], segments: list[tuple[int, int]]
    ) -> tuple["array[int]", list[int]]:
        """``(order, below)``: the positions that sort each segment of
        ``values`` stably in place, and per segment the number of values
        below its median (the value at in-segment sorted index
        ``size // 2``)."""
        order = array("q")
        below = []
        for start, end in segments:
            segment = sorted(range(start, end), key=values.__getitem__)
            order.extend(segment)
            keys = list(map(values.__getitem__, segment))
            below.append(bisect_left(keys, keys[len(keys) // 2]))
        return order, below

    def segment_choose(
        self,
        orders: Sequence[Any],
        choice: Sequence[int],
        segments: list[tuple[int, int]],
    ) -> "array[int]":
        """Per segment ``s``, the positions ``orders[choice[s]]`` holds over
        it, or its own positions where ``choice[s]`` is negative (each
        order spans the whole segmentation, unused ones may be ``None``)."""
        chosen = array("q")
        for pick, (start, end) in zip(choice, segments):
            chosen.extend(range(start, end) if pick < 0 else orders[pick][start:end])
        return chosen

    # -- histograms ----------------------------------------------------------

    def grouped_value_counts(
        self,
        class_of: Sequence[int],
        group_count: int,
        codes: Sequence[int],
    ) -> list[list[tuple[int, int]]]:
        """Per-class value histograms over interned codes.

        Returns, for each class index, ``(code, count)`` pairs in first-
        occurrence-within-class order — the exact insertion order the
        row plane's dict pass produces, so float consumers that iterate
        histogram values (entropy l-diversity) accumulate identically.
        """
        per_class: list[dict[int, int]] = [{} for _ in range(group_count)]
        for label, code in zip(class_of, codes):
            counts = per_class[label]
            counts[code] = counts.get(code, 0) + 1
        return [list(counts.items()) for counts in per_class]

    # -- interning -----------------------------------------------------------

    def intern(self, values: Sequence[Any]) -> tuple["array[int]", tuple[Any, ...]]:
        """First-occurrence interning; see :func:`intern_values`."""
        return intern_values(values)


class NumpyKernels:
    """Vectorized kernel backend (requires numpy).

    Observable semantics match :class:`PythonKernels` exactly; see the
    module docstring.  Import only when numpy is present.
    """

    name = "numpy"
    is_numpy = True

    def __init__(self) -> None:
        import numpy

        self._np = numpy

    @property
    def numpy(self):
        """The numpy module backing this backend."""
        return self._np

    # -- construction -------------------------------------------------------

    def from_code_buffer(self, codes: "array[int]") -> Any:
        """Zero-copy int64 view over an ``array('q')`` code buffer."""
        np = self._np
        if isinstance(codes, np.ndarray):
            return codes
        return np.frombuffer(codes, dtype=np.int64)

    def asarray(self, values: Sequence[int]) -> Any:
        """The values as an int64 numpy array."""
        return self._np.asarray(values, dtype=self._np.int64)

    def tolist(self, values: Any) -> list[int]:
        """The values as a plain list of ints."""
        if isinstance(values, self._np.ndarray):
            return values.tolist()
        return [int(value) for value in values]

    # -- gathers ------------------------------------------------------------

    def gather(self, table: Any, indices: Any) -> Any:
        """``table[indices]`` with both operands coerced to int64 arrays."""
        np = self._np
        if not isinstance(table, np.ndarray):
            if isinstance(table, array):
                table = np.frombuffer(table, dtype=np.int64)
            else:
                table = np.asarray(table, dtype=np.int64)
        if not isinstance(indices, np.ndarray):
            if isinstance(indices, array):
                indices = np.frombuffer(indices, dtype=np.int64)
            else:
                indices = np.asarray(indices, dtype=np.int64)
        return table[indices]

    def scatter_fill(self, values: Any, rows: Any, fill: int) -> None:
        """Write ``fill`` into ``values`` at the given row positions, in
        place.
        """
        values[self.asarray(rows) if not isinstance(rows, self._np.ndarray) else rows] = fill

    # -- mixed-radix packing and grouping ------------------------------------

    def pack(self, combined: Any, radix: int, codes: Any) -> Any:
        """One packing step ``combined * radix + codes`` (no densify)."""
        return combined * radix + codes

    def densify(self, combined: Any) -> tuple[Any, int]:
        """Renumber values to dense sorted ranks; returns ``(dense, count)``.
        """
        distinct, dense = self._np.unique(combined, return_inverse=True)
        return dense, int(distinct.size)

    def group(self, combined: Any) -> tuple[Any, Any, int]:
        """Group equal values: ``(reps, labels, count)`` with reps the
        minimal row index per group (``minimum.at``: ``return_index``
        would force a slower stable sort).
        """
        np = self._np
        distinct, labels = np.unique(combined, return_inverse=True)
        reps = np.full(distinct.size, labels.size, dtype=np.int64)
        np.minimum.at(reps, labels, np.arange(labels.size, dtype=np.int64))
        return reps, labels, int(distinct.size)

    # -- per-group reductions ------------------------------------------------

    def key_sizes(self, keys: Any, bound: int) -> Any:
        """Group sizes of packed ``keys`` (values in ``range(bound)``) in
        sorted-key order: a ``bincount`` compressed to its nonzero entries
        when ``bound`` is at most the row count, else a sorted count."""
        np = self._np
        if bound <= keys.size:
            counts = np.bincount(keys)
            return counts[counts > 0].astype(np.int64, copy=False)
        _, sizes = np.unique(keys, return_counts=True)
        return sizes.astype(np.int64, copy=False)

    def bincount(self, labels: Any, count: int) -> Any:
        """Occurrences of each label in ``0..count-1`` as an int64 array."""
        return self._np.bincount(labels, minlength=count).astype(
            self._np.int64, copy=False
        )

    def fold_add(self, child_of_group: Any, parent_sizes: Any, count: int) -> Any:
        """Sum ``parent_sizes`` into child groups selected by
        ``child_of_group``.
        """
        np = self._np
        sizes = np.zeros(count, dtype=np.int64)
        np.add.at(sizes, child_of_group, parent_sizes)
        return sizes

    def fold_min(
        self, child_of_group: Any, parent_values: Any, count: int, fill: int
    ) -> Any:
        """Minimum of ``parent_values`` per child group, starting from
        ``fill``.
        """
        np = self._np
        minima = np.full(count, fill, dtype=np.int64)
        np.minimum.at(minima, child_of_group, parent_values)
        return minima

    # -- scans ---------------------------------------------------------------

    def argsort(self, values: Any) -> list[int]:
        """Indices that would sort ``values`` ascending, as a list."""
        return self._np.argsort(values).tolist()

    def flatnonzero_less(self, values: Any, bound: int) -> list[int]:
        """Row indices where ``values < bound``, in row order."""
        return self._np.flatnonzero(values < bound).tolist()

    def sum_less(self, values: Any, bound: int) -> int:
        """Sum of the elements strictly below ``bound``."""
        return int(values[values < bound].sum())

    def size_histogram(self, sizes: Any) -> "array[int]":
        """Class ``sizes`` as one ``array('q')``; the layout is
        :meth:`PythonKernels.size_histogram`'s."""
        np = self._np
        counts = np.bincount(sizes).astype(np.int64, copy=False)
        distinct = counts.nonzero()[0].astype(np.int64, copy=False)
        multiplicity = counts[distinct]
        zero = bytes(8)
        return array("q", b"".join((
            distinct.tobytes(),
            zero,
            (distinct * multiplicity).cumsum().tobytes(),
            zero,
            multiplicity.cumsum().tobytes(),
        )))

    # -- segments ------------------------------------------------------------

    def segments(self, starts: Sequence[int], size: int) -> tuple[Any, Any, Any]:
        """The segmentation as ``(ids, starts, ends)`` int64 arrays, ``ids``
        each position's segment; see :meth:`PythonKernels.segments`."""
        np = self._np
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:]
        ends[-1:] = size
        ids = np.zeros(size, dtype=np.int64)
        ids[starts[1:]] = 1
        return ids.cumsum(out=ids), starts, ends

    def ranges(self, starts: Sequence[int], sizes: Sequence[int]) -> Any:
        """``range(start, start + size)`` for each pair, concatenated."""
        np = self._np
        starts = np.asarray(starts, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        shift = starts - (sizes.cumsum() - sizes)
        return np.arange(int(sizes.sum()), dtype=np.int64) + np.repeat(shift, sizes)

    def scatter(self, values: Any, positions: Any, source: Any) -> None:
        """``values[positions] = source`` in place."""
        values[positions] = source

    def segment_bounds(
        self, values: Any, segments: tuple[Any, Any, Any]
    ) -> tuple[list[int], list[int]]:
        """``(minima, maxima)`` of each segment of ``values``."""
        np = self._np
        _, starts, _ = segments
        if not starts.size:
            return [], []
        return (
            np.minimum.reduceat(values, starts).tolist(),
            np.maximum.reduceat(values, starts).tolist(),
        )

    def segment_distinct(self, codes: Any, segments: tuple[Any, Any, Any]) -> list[int]:
        """Number of distinct codes in each segment: a ``bincount`` over
        ``(segment, code)`` keys while their range stays within 8x the
        length, else a sorted count of the distinct keys."""
        np = self._np
        ids, starts, _ = segments
        if not starts.size:
            return []
        domain = int(codes.max()) + 1
        keys = ids * domain + codes
        if starts.size * domain <= 8 * keys.size:
            present = np.bincount(keys, minlength=starts.size * domain)
            return np.count_nonzero(present.reshape(starts.size, domain), axis=1).tolist()
        keys.sort()
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        return np.bincount(keys[first] // domain, minlength=starts.size).tolist()

    def segment_split(
        self, values: Any, segments: tuple[Any, Any, Any]
    ) -> tuple[Any, list[int]]:
        """``(order, below)`` of :meth:`PythonKernels.segment_split`: one
        stable sort of ``(segment, value)`` keys, each median read at
        ``start + size // 2`` and its first position searched."""
        np = self._np
        ids, starts, ends = segments
        if not starts.size:
            return np.arange(values.size, dtype=np.int64), []
        keys = ids * (int(values.max()) + 1) + values
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        medians = ordered[(starts + ends) // 2]
        return order, (np.searchsorted(ordered, medians) - starts).tolist()

    def segment_choose(
        self, orders: Sequence[Any], choice: Sequence[int], segments: tuple[Any, Any, Any]
    ) -> Any:
        """Per segment, the positions of its chosen order (its own where
        the choice is negative); see :meth:`PythonKernels.segment_choose`."""
        np = self._np
        ids = segments[0]
        pick = np.asarray(choice, dtype=np.int64)[ids]
        chosen = np.arange(ids.size, dtype=np.int64)
        for index, order in enumerate(orders):
            if order is not None:
                mask = pick == index
                chosen[mask] = order[mask]
        return chosen

    # -- histograms ----------------------------------------------------------

    def grouped_value_counts(
        self, class_of: Any, group_count: int, codes: Any
    ) -> list[list[tuple[int, int]]]:
        """Per-class ``(code, count)`` histograms in
        first-occurrence-within-class order — the row plane's dict insertion
        order.
        """
        np = self._np
        if not isinstance(class_of, np.ndarray):
            class_of = self.asarray(class_of)
        if not isinstance(codes, np.ndarray):
            codes = np.frombuffer(codes, dtype=np.int64)
        if not class_of.size:
            return [[] for _ in range(group_count)]
        domain = int(codes.max()) + 1 if codes.size else 1
        keys = class_of * domain + codes
        distinct, first_row, counts = np.unique(
            keys, return_index=True, return_counts=True
        )
        classes = distinct // domain
        values = distinct % domain
        # Emit per class in first-occurrence-within-class order — the dict
        # insertion order of the row plane's single pass.
        order = np.lexsort((first_row, classes))
        histograms: list[list[tuple[int, int]]] = [[] for _ in range(group_count)]
        class_list = classes[order].tolist()
        value_list = values[order].tolist()
        count_list = counts[order].tolist()
        for label, code, count in zip(class_list, value_list, count_list):
            histograms[label].append((code, count))
        return histograms

    # -- interning -----------------------------------------------------------

    def intern(self, values: Sequence[Any]) -> tuple["array[int]", tuple[Any, ...]]:
        """First-occurrence interning; see :func:`intern_values`."""
        return intern_values(values)


#: Types whose equal values always share their type and ``repr``: a column
#: of one of them is interned on the value itself.
_VALUE_KEYED = frozenset({str, int, bool, type(None)})


def intern_values(values: Sequence[Any]) -> tuple["array[int]", tuple[Any, ...]]:
    """Intern a column exactly: ``(codes, decode)``.

    Codes are numbered by first occurrence in row order, and values share
    a code only if they are equal *and* of one type and ``repr``: ``7``/
    ``7.0``, ``True``/``1``/``1.0`` and ``0.0``/``-0.0`` do not.  ``decode``
    holds the column's own objects, the first of each code, so
    ``decode[codes[i]]`` has row ``i``'s type and ``repr``.  A column of one
    ``_VALUE_KEYED`` type, or of floats without both zeros, is keyed on the
    value, any other on ``(type, repr, value)``; NaN stays apart by
    identity.  One dict pass serves both backends: it beats a vectorized
    ``np.unique`` on every column shape measured.
    """
    kinds = set(map(type, values))
    by_value = len(kinds) <= 1 and (
        kinds <= _VALUE_KEYED
        # Equal floats share their ``repr``, except ``0.0`` and ``-0.0``.
        or (kinds == {float} and len({repr(v) for v in values if v == 0.0}) <= 1)
    )
    keys = values if by_value else [(type(v), repr(v), v) for v in values]
    lookup: dict[Any, int] = {}
    intern_one = lookup.setdefault
    codes = array("q", [intern_one(key, len(lookup)) for key in keys])
    return codes, tuple(lookup) if by_value else tuple(key[2] for key in lookup)


_INT64_SPAN = 1 << 63  # keys below a bound b fit int64 iff b <= 2**63


def pack_columns(
    kernels: Any, columns: Sequence[tuple[Any, int]]
) -> tuple[Any, int]:
    """``(keys, bound)``: mixed-radix keys of ``[(codes, radix), ...]``
    (codes in ``range(radix)``) and the exclusive bound of the keys, or
    ``(None, 1)`` for no columns; see the module docstring.
    """
    combined: Any = None
    bound = 1
    for codes, radix in columns:
        if combined is None:
            combined, bound = codes, radix
            continue
        if bound * radix > _INT64_SPAN:
            combined, bound = kernels.densify(combined)
            if bound * radix > _INT64_SPAN:
                raise OverflowError(f"{bound} groups x radix {radix} overflow int64")
        combined = kernels.pack(combined, radix, codes)
        bound *= radix
    return combined, bound

