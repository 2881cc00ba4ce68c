"""The columnar-plane kernel operations, in numpy and pure-python form.

Every operation the measurement plane needs is expressed over dense int64
code arrays:

* ``gather`` — fancy-index a (tiny) per-level table over per-row codes;
* ``pack`` — one mixed-radix step ``combined * radix + codes``; driven
  over a column list by :func:`pack_columns`;
* ``group`` / ``densify`` — label rows by distinct packed value;
* ``bincount`` / ``fold_add`` / ``fold_min`` — per-group sizes and
  representative rows, fresh or folded through a coarsening map;
* ``grouped_value_counts`` — per-class value histograms (the raw material
  of l-diversity / t-closeness) from one grouping pass;
* ``intern`` — vectorized first-occurrence code interning (numpy only;
  the pure backend returns ``None`` and callers keep the dict loop).

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

Kernel arrays are opaque to callers: ``numpy.ndarray`` under the numpy
backend, ``array('q')`` under the pure backend.  Callers index them and
pass them back to kernel ops, nothing more; crossing a process boundary
or feeding a public API happens via ``tolist``.
"""

from __future__ import annotations

from array import array
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

    def count_less(self, values: Sequence[int], bound: int) -> int:
        """Number of values strictly below ``bound``."""
        return sum(1 for value in values if value < bound)

    def sum_less(self, values: Sequence[int], bound: int) -> int:
        """Sum of the values strictly below ``bound``."""
        return sum(value for value in values if value < bound)

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

    def intern(
        self, values: Sequence[Any]
    ) -> tuple["array[int]", tuple[Any, ...]] | None:
        """Vectorized first-occurrence interning, or ``None`` to decline.

        The pure backend always declines: the caller's dict loop *is* the
        pure-python implementation.
        """
        return None


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

    def count_less(self, values: Any, bound: int) -> int:
        """Number of elements strictly below ``bound``."""
        return int(self._np.count_nonzero(values < bound))

    def sum_less(self, values: Any, bound: int) -> int:
        """Sum of the elements strictly below ``bound``."""
        return int(values[values < bound].sum())

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

    def intern(
        self, values: Sequence[Any]
    ) -> tuple["array[int]", tuple[Any, ...]] | None:
        """First-occurrence interning via a stable ``np.unique``.

        Only homogeneous scalar columns take the fast path: pure-``str``,
        pure-``int``/``bool``, and NaN-free pure-``float`` columns (NaN
        equality differs between sort-based and hash-based grouping).
        Anything else — object columns, mixed types (which ``np.asarray``
        would silently coerce, merging values the dict loop keeps
        distinct), ints beyond int64 — returns ``None`` and the caller's
        dict loop runs instead.  Codes and decode tables are identical to
        the dict loop's: codes numbered by first occurrence in row order,
        decode holding the *original* column objects.
        """
        np = self._np
        if not len(values):
            return array("q"), ()
        kinds = {type(value) for value in values}
        if kinds == {str}:
            # numpy's fixed-width unicode dtype pads with (and therefore
            # strips trailing) NULs, which would merge 'a' with 'a\x00';
            # such columns fall back to the dict loop.
            if any("\x00" in value for value in values):
                return None
            dtype = None  # numpy infers <U{max_len}
        elif kinds <= {int, bool}:
            dtype = np.int64
        elif kinds == {float}:
            dtype = np.float64
        else:
            return None
        try:
            arr = np.asarray(values, dtype=dtype)
        except (ValueError, TypeError, OverflowError):  # huge ints, ragged
            return None
        if arr.ndim != 1 or len(arr) != len(values):
            return None
        if arr.dtype.kind == "f" and np.isnan(arr).any():
            return None
        _, first_idx, inverse = np.unique(
            arr, return_index=True, return_inverse=True
        )
        order = np.argsort(first_idx, kind="stable")
        rank = np.empty(order.size, dtype=np.int64)
        rank[order] = np.arange(order.size, dtype=np.int64)
        codes = array("q", bytes(8 * len(values)))
        codes_np = np.frombuffer(codes, dtype=np.int64)
        with _writable(codes_np):
            codes_np[:] = rank[inverse]
        decode = tuple(values[int(position)] for position in first_idx[order])
        return codes, decode


_INT64_SPAN = 1 << 63  # keys below a bound b fit int64 iff b <= 2**63


def pack_columns(kernels: Any, columns: Sequence[tuple[Any, int]]) -> Any:
    """Mixed-radix keys of ``[(codes, radix), ...]`` (codes in
    ``range(radix)``), or ``None`` for no columns; see the module docstring.
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
    return combined


class _writable:
    """Temporarily lift the write guard on a frombuffer view (local use)."""

    def __init__(self, arr: Any) -> None:
        self._arr = arr

    def __enter__(self) -> Any:
        self._arr.flags.writeable = True
        return self._arr

    def __exit__(self, *exc: Any) -> None:
        self._arr.flags.writeable = False
