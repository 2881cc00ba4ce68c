"""The columnar data plane: interned integer-coded columns.

Row-shaped measurement is the dominant cost of lattice sweeps: every node
visit re-walks every row through per-cell hierarchy dict lookups.  The
columnar plane fixes the representation instead — each column is interned
once into dense integer *codes* (``array('q')``) plus a decode table, after
which full-domain recoding, grouping and loss scoring become array gathers
over the (tiny) code domain rather than per-row Python work.

The view is value-preserving and order-preserving by construction:

* codes are assigned by first occurrence in row order, so decode tables are
  deterministic and independent of ``PYTHONHASHSEED``;
* ``decode[codes[i]] == column[i]`` — the decode table stores the exact
  objects of the source column, the first of each set of equal values.
  Interning is by equality, so ``7`` and ``7.0`` (or ``True`` and ``1``)
  share one code and release as whichever came first.

:meth:`Dataset.columns` (see ``datasets/dataset.py``) caches one
:class:`ColumnarView` per dataset; hierarchy *level tables* built on top of
these codes live in :mod:`repro.hierarchy.codes`.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Any

from ..kernels import active as active_kernels

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .dataset import Dataset


class ColumnCodes:
    """One column interned to dense integer codes.

    Interning takes the kernel layer's vectorized fast path when the
    active backend offers one (homogeneous int/bool/string columns under
    numpy); the dict loop below is the always-available fallback and the
    executable specification — both assign codes by first occurrence and
    store the column's exact objects in ``decode``.

    Attributes
    ----------
    name:
        The attribute name.
    codes:
        ``array('q')`` of per-row codes, in row order.
    decode:
        Tuple mapping code -> original value, in first-occurrence order;
        ``decode[codes[i]]`` is the first object equal to row ``i``'s.
    """

    __slots__ = ("name", "codes", "decode", "level_tables")

    def __init__(self, name: str, values: tuple[Any, ...]):
        interned = active_kernels().intern(values)
        if interned is not None:
            codes, decode = interned
        else:
            lookup: dict[Any, int] = {}
            codes = array("q", bytes(8 * len(values)))
            for row_index, value in enumerate(values):
                code = lookup.get(value)
                if code is None:
                    code = len(lookup)
                    lookup[value] = code
                codes[row_index] = code
            decode = tuple(lookup)
        self.name = name
        self.codes = codes
        self.decode: tuple[Any, ...] = decode
        #: Per-hierarchy level tables, memoized by ``hierarchy/codes.py``
        #: (keyed by hierarchy identity; values keep the hierarchy alive so
        #: ids cannot be recycled).
        self.level_tables: dict[int, Any] = {}

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def domain_size(self) -> int:
        """Number of distinct values in the column."""
        return len(self.decode)

    def code_of(self, value: Any) -> int:
        """The code of one value (O(domain) — for tests and debugging)."""
        return self.decode.index(value)

    def __repr__(self) -> str:
        return (
            f"ColumnCodes({self.name!r}, rows={len(self)}, "
            f"domain={self.domain_size})"
        )


class ColumnarView:
    """Lazy per-column interning of one dataset.

    Obtained via :meth:`Dataset.columns`; columns are interned on first
    access and shared by every consumer of the dataset (engine, workspace,
    equivalence classes), which is what makes identity-keyed memoization
    (level tables, per-column histograms) effective.
    """

    __slots__ = ("_dataset", "_columns")

    def __init__(self, dataset: "Dataset"):
        self._dataset = dataset
        self._columns: dict[str, ColumnCodes] = {}

    @property
    def dataset(self) -> "Dataset":
        """The dataset this view interns."""
        return self._dataset

    def column(self, name: str) -> ColumnCodes:
        """The interned codes of one column (built once, cached)."""
        interned = self._columns.get(name)
        if interned is None:
            interned = ColumnCodes(name, self._dataset.column(name))
            self._columns[name] = interned
        return interned

    def __repr__(self) -> str:
        return (
            f"ColumnarView({self._dataset!r}, "
            f"interned={sorted(self._columns)})"
        )
