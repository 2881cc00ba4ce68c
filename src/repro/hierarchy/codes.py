"""Per-(hierarchy, column) level tables for the columnar plane.

A *level table* precomputes, for one interned column and one hierarchy,
everything a full-domain recoding can ask: for each level ``L`` an
``array('q')`` gather mapping base code -> generalized code, the decode
table of generalized values, and the per-base-code loss.  Recoding a whole
column at level ``L`` is then a single gather over the (tiny) base-code
domain — no per-row hierarchy walks.

Tables are built once per (column identity, hierarchy identity) and
memoized on the :class:`~repro.datasets.columnar.ColumnCodes` object (the
memo stores the hierarchy itself, so the id key can never be recycled).

Base codes are exact, so ``7`` and ``7.0`` are generalized apart, while
generalized codes group by *equality*, as the row plane's partition does.
They are assigned by first occurrence over the base codes, which — because
base codes are themselves first-occurrence in row order — equals first
occurrence in row order.  The decode tables store the exact objects
``hierarchy.generalize`` returns, and :attr:`Level.values` each base
value's own, so released cells serialize identically to the row plane's.

The table also answers the question the incremental partition path needs:
:meth:`LevelTable.nested` — whether the level chain is *nested* (equal
codes at level ``L`` imply equal codes at every higher level) over the
actual column domain.  ART002 checks monotonicity on samples; band
hierarchies with shifted anchors can legitimately fail it, in which case
partitions cannot be coarsened incrementally and callers must fall back to
a fresh mixed-radix grouping.
"""

from __future__ import annotations

from array import array
from typing import Any

from ..datasets.columnar import ColumnCodes
from .base import Hierarchy


class Level:
    """One level of a level table.

    Attributes
    ----------
    gather:
        ``array('q')``: base code -> generalized code (by equality).
    decode:
        Tuple: generalized code -> generalized value (exact ``generalize``
        return objects, first-occurrence order).
    values:
        Tuple: base code -> that base value's own ``generalize`` result.
    mixed:
        Whether some ``values[b]`` differs in type or ``repr`` from
        ``decode[gather[b]]`` (``7`` beside ``7.0`` at level 0): only
        then does a release store ``values``.
    loss:
        ``array('d')``: base code -> normalized LM loss at this level.
    count:
        Number of distinct generalized codes.  Every base code occurs in
        the column, so ``count`` is also the number of *distinct released
        values* of the column at this level, up to type and ``repr``.
    """

    __slots__ = ("gather", "decode", "values", "mixed", "loss", "count")

    def __init__(self, hierarchy: Hierarchy, base_decode: tuple[Any, ...], level: int):
        size = len(base_decode)
        gather = array("q", bytes(8 * size))
        loss = array("d", bytes(8 * size))
        lookup: dict[Any, int] = {}
        values = []
        for base_code, value in enumerate(base_decode):
            generalized = hierarchy.generalize(value, level)
            gather[base_code] = lookup.setdefault(generalized, len(lookup))
            values.append(generalized)
            loss[base_code] = hierarchy.loss(value, level)
        self.gather = gather
        self.decode: tuple[Any, ...] = tuple(lookup)
        self.values: tuple[Any, ...] = tuple(values)
        self.mixed = any(
            own is not shared
            and (type(own) is not type(shared) or repr(own) != repr(shared))
            for own, shared in zip(values, map(self.decode.__getitem__, gather))
        )
        self.loss = loss
        self.count = len(lookup)


class LevelTable:
    """All levels of one hierarchy over one interned column."""

    __slots__ = ("hierarchy", "base_decode", "_levels", "_nested")

    def __init__(self, hierarchy: Hierarchy, base_decode: tuple[Any, ...]):
        self.hierarchy = hierarchy
        self.base_decode = base_decode
        self._levels: dict[int, Level] = {}
        self._nested: bool | None = None

    @property
    def height(self) -> int:
        """The hierarchy's height (maximum generalization level)."""
        return self.hierarchy.height

    def level(self, level: int) -> Level:
        """The gather/decode/loss tables at ``level`` (built once)."""
        built = self._levels.get(level)
        if built is None:
            self.hierarchy.check_level(level)
            built = Level(self.hierarchy, self.base_decode, level)
            self._levels[level] = built
        return built

    def nested(self) -> bool:
        """Whether the level chain is nested over this column's domain.

        Nested means: for every consecutive level pair, equal generalized
        codes at the lower level imply equal codes at the higher one.  Only
        then is deriving a coarser partition from a finer one (via one
        representative row per class) valid.
        """
        if self._nested is None:
            self._nested = self._check_nested()
        return self._nested

    def _check_nested(self) -> bool:
        size = len(self.base_decode)
        previous = self.level(0)
        for target in range(1, self.height + 1):
            current = self.level(target)
            parent_of: dict[int, int] = {}
            for base_code in range(size):
                source = previous.gather[base_code]
                destination = current.gather[base_code]
                seen = parent_of.setdefault(source, destination)
                if seen != destination:
                    return False
            previous = current
        return True


def level_table(column: ColumnCodes, hierarchy: Hierarchy) -> LevelTable:
    """The memoized level table for ``(column, hierarchy)``.

    Keyed by hierarchy identity; the memo entry stores the hierarchy object
    itself so the id cannot be recycled while the column is alive.
    """
    entry = column.level_tables.get(id(hierarchy))
    if entry is not None and entry[0] is hierarchy:
        return entry[1]
    table = LevelTable(hierarchy, column.decode)
    column.level_tables[id(hierarchy)] = (hierarchy, table)
    return table
