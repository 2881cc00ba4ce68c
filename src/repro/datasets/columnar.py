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
* interning is exact: ``decode[codes[i]]`` is the first object of row
  ``i``'s type and ``repr`` equal to it, so ``7`` and ``7.0`` (or ``True``
  and ``1``, ``0.0`` and ``-0.0``) keep codes of their own.  Consumers
  that group by equality alone fold the codes over ``decode`` in
  O(domain) (:meth:`ColumnCodes.equality_codes`; the level tables group
  generalized values in a dict).

:meth:`Dataset.columns` (see ``datasets/dataset.py``) caches one
:class:`ColumnarView` per dataset; hierarchy *level tables* built on top of
these codes live in :mod:`repro.hierarchy.codes`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..kernels import active as active_kernels

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .dataset import Dataset


class ColumnCodes:
    """One column interned to dense integer codes.

    Interning is the kernel layer's ``intern`` (one dict pass shared by
    both backends, :func:`repro.kernels.columnar.intern_values`): codes
    are assigned by first occurrence, and values share a code only when
    they are equal and of one type and ``repr``, so ``7``/``7.0``,
    ``True``/``1`` and ``0.0``/``-0.0`` get codes of their own.

    Attributes
    ----------
    name:
        The attribute name.
    codes:
        ``array('q')`` of per-row codes, in row order.
    decode:
        Tuple mapping code -> original value, in first-occurrence order;
        ``decode[codes[i]]`` is the first object of row ``i``'s code, of
        its type and ``repr``.
    """

    __slots__ = ("name", "codes", "decode", "level_tables")

    def __init__(self, name: str, values: tuple[Any, ...]):
        codes, decode = active_kernels().intern(values)
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
        """Number of codes: distinct values, told apart by type and ``repr``."""
        return len(self.decode)

    def equality_codes(self) -> tuple[Any, int]:
        """``(codes, count)``: per-row codes (a kernel array) grouping rows
        by equality alone, as ``set(column)`` does, and their number: the
        exact codes folded over ``decode`` (O(domain), no row pass)."""
        lookup: dict[Any, int] = {}
        fold = [lookup.setdefault(value, len(lookup)) for value in self.decode]
        kernels = active_kernels()
        codes = kernels.from_code_buffer(self.codes)
        if len(lookup) == len(fold):
            return codes, len(fold)
        return kernels.gather(fold, codes), len(lookup)

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

    __slots__ = ("_dataset", "_columns", "lattice_memo")

    def __init__(self, dataset: "Dataset"):
        self._dataset = dataset
        self._columns: dict[str, ColumnCodes] = {}
        #: Facts about full-domain recodings of this table, shared by every
        #: ``RecodingWorkspace`` built on it (``anonymize/algorithms/base.py``):
        #: a node's class-size histogram, keyed by ``(level tables of the
        #: projection, node)``, and a level's row-order loss sum, keyed by
        #: ``(level table, level)``.  Each value is a pure function of its
        #: key, and the level tables in the keys are kept alive by the
        #: columns above, so no entry can go stale.  Bounded by the number
        #: of (projection, node) pairs; never pickled, like the view.
        self.lattice_memo: dict[tuple[Any, Any], Any] = {}

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
