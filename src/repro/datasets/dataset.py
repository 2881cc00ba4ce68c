"""Immutable microdata tables.

A :class:`Dataset` is an ordered, immutable collection of tuples over a
:class:`~repro.datasets.schema.Schema`.  Row order is significant: the paper's
property vectors (Definition 1) assign the i-th vector element to the i-th
tuple of the data set, and anonymizations never reorder or drop rows — even
suppressed tuples are "retained in an overly generalized form" (Section 3) so
that the original and anonymized data sets have the same size.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from .schema import Attribute, Schema, SchemaError

if TYPE_CHECKING:  # pragma: no cover - typing-only import (cycle guard)
    from .columnar import ColumnarView

Row = tuple[Any, ...]


def _fingerprint_token(value: Any) -> bytes:
    """A stable byte serialization of one cell value.

    ``repr`` of the builtin scalar types is stable across processes and
    Python invocations (no ``PYTHONHASHSEED`` dependence); the type name
    disambiguates values whose reprs collide (``1`` vs ``True`` vs ``"1"``).
    Set-valued cells (set-generalized categories) serialize element-wise in
    sorted token order: a set's *iteration* order depends on its insertion
    history, so ``repr`` would fingerprint the same released cell
    differently before and after a pickle round-trip through the result
    cache.
    """
    if isinstance(value, (set, frozenset)):
        inner = b"".join(sorted(_fingerprint_token(item) for item in value))
        return f"{type(value).__name__}[".encode("utf-8") + inner + b"]\x1f"
    return f"{type(value).__name__}:{value!r}\x1f".encode("utf-8")


class DatasetError(ValueError):
    """Raised for malformed rows or invalid dataset operations."""


class Dataset:
    """An immutable table of microdata rows.

    Parameters
    ----------
    schema:
        Column definitions with disclosure-control roles.
    rows:
        Row tuples; each must have exactly ``len(schema)`` values.
    """

    __slots__ = ("_schema", "_rows", "_column_cache", "_columnar")

    def __init__(self, schema: Schema, rows: Sequence[Sequence[Any]]):
        materialized: list[Row] = []
        width = len(schema)
        for position, row in enumerate(rows):
            row_tuple = tuple(row)
            if len(row_tuple) != width:
                raise DatasetError(
                    f"row {position} has {len(row_tuple)} values, expected {width}"
                )
            materialized.append(row_tuple)
        self._schema = schema
        self._rows: tuple[Row, ...] = tuple(materialized)
        self._column_cache: dict[str, tuple[Any, ...]] = {}
        self._columnar: Any = None

    # -- basic container protocol ------------------------------------------

    @property
    def schema(self) -> Schema:
        """The table's column definitions."""
        return self._schema

    @property
    def rows(self) -> tuple[Row, ...]:
        """All rows, in original order."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __getitem__(self, index: int) -> Row:
        return self._rows[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self._schema == other._schema and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._schema, self._rows))

    def __repr__(self) -> str:
        return f"Dataset({len(self)} rows x {len(self._schema)} attributes)"

    # -- pickling -------------------------------------------------------------

    def __getstate__(self) -> tuple[None, dict[str, Any]]:
        # Persist the table only.  The column memo and the columnar view
        # (interned codes, decode and level tables) are derived from it and
        # rebuild lazily; pickling them would more than double every cached
        # release and every dataset sent to a pool worker.
        return None, {"_schema": self._schema, "_rows": self._rows}

    def __setstate__(self, state: tuple[Any, dict[str, Any]]) -> None:
        # Also accepts the default slots state of pickles that carried the
        # derived caches; those are dropped here.
        _, slots = state
        self._schema = slots["_schema"]
        self._rows = slots["_rows"]
        self._column_cache = {}
        self._columnar = None

    # -- identity ------------------------------------------------------------

    def fingerprint(self) -> str:
        """A stable sha256 content fingerprint of the table.

        Hashes the schema (names, kinds, roles) and every cell value,
        column by column with columns taken in *sorted name order*, so two
        datasets holding the same columns in different insertion order
        fingerprint identically.  Row order *does* matter: property vectors
        are index-aligned with rows (Definition 1), so reordering rows is a
        semantically different table.  The digest is independent of the
        process (no ``PYTHONHASHSEED`` dependence) and is the dataset
        component of the runtime's content-addressed cache keys.
        """
        hasher = hashlib.sha256()
        hasher.update(f"rows:{len(self._rows)}\x1e".encode("utf-8"))
        order = sorted(
            range(len(self._schema)),
            key=lambda position: self._schema.attributes[position].name,
        )
        for position in order:
            attribute = self._schema.attributes[position]
            hasher.update(
                f"col:{attribute.name}|{attribute.kind.value}|"
                f"{attribute.role.value}\x1e".encode("utf-8")
            )
            for row in self._rows:
                hasher.update(_fingerprint_token(row[position]))
        return hasher.hexdigest()

    # -- column access ------------------------------------------------------

    def column(self, name: str) -> tuple[Any, ...]:
        """All values of the named column, in row order.

        The tuple is memoized (the dataset is immutable), so repeated calls
        return the *same* object — identity-keyed caches downstream (level
        tables, per-column class histograms) rely on this.
        """
        cached = self._column_cache.get(name)
        if cached is None:
            position = self._schema.index_of(name)
            cached = tuple(row[position] for row in self._rows)
            self._column_cache[name] = cached
        return cached

    def columns(self) -> "ColumnarView":
        """The columnar plane of this dataset (interned codes; cached).

        See :mod:`repro.datasets.columnar` — each accessed column is
        interned once into dense integer codes plus a decode table, shared
        by every consumer of this dataset object.
        """
        if self._columnar is None:
            from .columnar import ColumnarView

            self._columnar = ColumnarView(self)
        return self._columnar

    def value(self, row_index: int, attribute: str) -> Any:
        """Value of one cell."""
        return self._rows[row_index][self._schema.index_of(attribute)]

    def distinct(self, name: str) -> set[Any]:
        """Distinct values of the named column."""
        return set(self.column(name))

    def quasi_identifier_tuple(self, row_index: int) -> Row:
        """The QI projection of one row."""
        row = self._rows[row_index]
        return tuple(row[i] for i in self._schema.quasi_identifier_indices)

    def quasi_identifier_tuples(self) -> tuple[Row, ...]:
        """QI projections of all rows, in row order."""
        indices = self._schema.quasi_identifier_indices
        return tuple(tuple(row[i] for i in indices) for row in self._rows)

    # -- derivation ---------------------------------------------------------

    def replace_rows(self, rows: Sequence[Sequence[Any]]) -> "Dataset":
        """A new dataset with the same schema and different rows."""
        return Dataset(self._schema, rows)

    def with_roles(self, roles: dict[str, Any]) -> "Dataset":
        """A copy with attribute roles reassigned (same rows)."""
        return Dataset(self._schema.with_roles(roles), self._rows)

    def select(self, predicate: Callable[[Row], bool]) -> "Dataset":
        """Rows satisfying ``predicate`` (a *new* dataset; row order kept)."""
        return Dataset(self._schema, [row for row in self._rows if predicate(row)])

    def project(self, names: Sequence[str]) -> "Dataset":
        """A dataset restricted to the named columns (order as given)."""
        positions = [self._schema.index_of(name) for name in names]
        attributes = tuple(self._schema.attributes[p] for p in positions)
        rows = [tuple(row[p] for p in positions) for row in self._rows]
        return Dataset(Schema(attributes), rows)

    def head(self, count: int) -> "Dataset":
        """The first ``count`` rows."""
        return Dataset(self._schema, self._rows[:count])

    # -- rendering ----------------------------------------------------------

    def to_text(self, max_rows: int | None = 20) -> str:
        """A plain-text rendering (for examples and reports)."""
        names = self._schema.names
        shown = self._rows if max_rows is None else self._rows[:max_rows]
        cells = [[str(v) for v in row] for row in shown]
        widths = [
            max([len(name)] + [len(row[i]) for row in cells]) if cells else len(name)
            for i, name in enumerate(names)
        ]
        def fmt(values: Sequence[str]) -> str:
            return "  ".join(value.ljust(width) for value, width in zip(values, widths))

        lines = [fmt(names), fmt(["-" * w for w in widths])]
        lines.extend(fmt(row) for row in cells)
        if max_rows is not None and len(self._rows) > max_rows:
            lines.append(f"... ({len(self._rows) - max_rows} more rows)")
        return "\n".join(lines)


def dataset_from_records(
    schema: Schema, records: Sequence[dict[str, Any]]
) -> Dataset:
    """Build a dataset from dict-records keyed by attribute name."""
    rows = []
    for position, record in enumerate(records):
        missing = set(schema.names) - set(record)
        if missing:
            raise DatasetError(f"record {position} missing attributes {sorted(missing)}")
        rows.append(tuple(record[name] for name in schema.names))
    return Dataset(schema, rows)
