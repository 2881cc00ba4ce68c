"""Recoding engine and the :class:`Anonymization` result object.

Two recoding styles are supported:

* **full-domain recoding** — every value of an attribute is generalized to the
  same hierarchy level (Datafly, Samarati, Incognito, the optimal search, GA);
* **local recoding** — produced cell-by-cell by algorithms such as Mondrian;
  the engine accepts any released table whose rows align with the original.

Suppressed tuples are *retained* with all quasi-identifiers replaced by the
suppression token, per Section 3 of the paper ("we assume that they still
exist in the anonymized data set in an overly generalized form"), so original
and released data sets always have equal size and property vectors stay
index-aligned.

Since the columnar refactor, :func:`recode` runs on the columnar plane: each
QI column is interned once (:meth:`Dataset.columns`), generalization is a
gather through the per-(hierarchy, column) level tables of
:mod:`repro.hierarchy.codes`, and the equivalence-class partition is grouped
by mixed-radix-packed integer codes instead of tuple keys.  Suppression goes
through the same path — a suppressed row's per-column code is the gather to
the suppression token's code at the level (:meth:`LevelTable.
suppression_code`), so suppressed rows collide exactly with naturally
fully-generalized rows and ``suppression_fraction`` / class sizes agree
between planes.  :func:`recode_rowwise` keeps the original row-at-a-time
implementation as the reference facade; both produce byte-identical results
(pinned by ``tests/test_golden_plane.py`` and the Hypothesis equivalence
tests).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from ..datasets.dataset import Dataset
from ..hierarchy.base import SUPPRESSED, Hierarchy
from ..hierarchy.codes import Level, LevelTable, level_table
from ..kernels import active as active_kernels, pack_columns
from ..lint.api import ensure_valid_hierarchies
from ..obs import metrics as obs_metrics
from ..obs import tracer as obs_tracer
from .equivalence import EquivalenceClasses

Levels = Mapping[str, int]


class AnonymizationError(ValueError):
    """Raised for inconsistent anonymization inputs."""


class Anonymization:
    """An anonymized release of a data set.

    Wraps the original and released tables (equal length, aligned rows) plus
    provenance: which rows were suppressed, which algorithm produced it, and —
    for full-domain recodings — the hierarchy level vector used.

    Parameters
    ----------
    original:
        The raw microdata.
    released:
        The generalized table; same schema shape and row count as the
        original, same values for non-QI columns.
    suppressed:
        Row indices whose QI values were fully suppressed.
    levels:
        Per-attribute hierarchy levels for full-domain recodings (``None``
        for local recodings).
    name:
        Label used in reports (e.g. ``"T3a"`` or ``"mondrian[k=5]"``).
    """

    def __init__(
        self,
        original: Dataset,
        released: Dataset,
        suppressed: Iterable[int] = (),
        levels: Levels | None = None,
        name: str = "anonymization",
    ):
        if len(original) != len(released):
            raise AnonymizationError(
                f"released table has {len(released)} rows, original has {len(original)}"
            )
        if original.schema.names != released.schema.names:
            raise AnonymizationError("released schema must match original schema")
        self.original = original
        self.released = released
        self.suppressed = frozenset(suppressed)
        out_of_range = [i for i in self.suppressed if not 0 <= i < len(original)]
        if out_of_range:
            raise AnonymizationError(f"suppressed indices out of range: {out_of_range}")
        self.levels = dict(levels) if levels is not None else None
        self.name = name
        self._classes: EquivalenceClasses | None = None
        # Optional columnar-plane partition factory, attached by recode();
        # consulted once by `equivalence_classes` instead of tuple grouping.
        self._classes_factory: Callable[[], EquivalenceClasses] | None = None

    def __len__(self) -> int:
        return len(self.original)

    def __getstate__(self) -> dict[str, Any]:
        # The columnar partition factory is a closure over level tables and
        # cannot cross process boundaries; drop it (and the classes it may
        # have produced, so both sides rebuild identically).  The row-plane
        # fallback in `equivalence_classes` yields the same partition.
        state = self.__dict__.copy()
        state["_classes"] = None
        state["_classes_factory"] = None
        return state

    def __repr__(self) -> str:
        return (
            f"Anonymization({self.name!r}, rows={len(self)}, "
            f"suppressed={len(self.suppressed)}, levels={self.levels})"
        )

    @property
    def equivalence_classes(self) -> EquivalenceClasses:
        """Row partition by released QI tuple (lazily computed, cached)."""
        if self._classes is None:
            if self._classes_factory is not None:
                self._classes = self._classes_factory()
            else:
                self._classes = EquivalenceClasses(
                    self.released.quasi_identifier_tuples()
                )
        return self._classes

    def k(self) -> int:
        """The k-anonymity level actually achieved (minimum class size)."""
        return self.equivalence_classes.minimum_size()

    def suppression_fraction(self) -> float:
        """Fraction of tuples suppressed."""
        if not len(self):
            return 0.0
        return len(self.suppressed) / len(self)

    def renamed(self, name: str) -> "Anonymization":
        """A shallow copy with a different report label."""
        clone = Anonymization(
            self.original, self.released, self.suppressed, self.levels, name
        )
        clone._classes = self._classes
        clone._classes_factory = self._classes_factory
        return clone


def resolve_sensitive_column(
    anonymization: Anonymization, attribute: str | None
) -> tuple[str, tuple[Any, ...]]:
    """Resolve a sensitive column (raw values, pre-anonymization).

    With ``attribute=None`` the schema must declare exactly one sensitive
    attribute; otherwise the named column is used.  Shared by the privacy
    models, property extractors, attacks and classification metric.
    """
    from ..datasets.schema import SchemaError

    schema = anonymization.original.schema
    if attribute is None:
        names = schema.sensitive_names
        if len(names) != 1:
            raise SchemaError(
                "dataset does not have exactly one sensitive attribute; "
                f"pass one of {schema.names} explicitly"
            )
        attribute = names[0]
    return attribute, anonymization.original.column(attribute)


def generalize_cell(
    hierarchy: Hierarchy, value: Any, level: int
) -> Any:
    """Generalize one cell; kept as a function hook for local recoders."""
    return hierarchy.generalize(value, level)


def _validate_recode(
    dataset: Dataset,
    hierarchies: Mapping[str, Hierarchy],
    levels: Levels,
) -> tuple[str, ...]:
    """Shared input validation of both recoding planes; returns QI names."""
    schema = dataset.schema
    qi_names = schema.quasi_identifier_names
    if not qi_names:
        raise AnonymizationError("dataset has no quasi-identifier attributes")
    missing = set(qi_names) - set(hierarchies)
    if missing:
        raise AnonymizationError(f"missing hierarchies for {sorted(missing)}")
    missing_levels = set(qi_names) - set(levels)
    if missing_levels:
        raise AnonymizationError(f"missing levels for {sorted(missing_levels)}")
    # Static artifact gate: a hierarchy with a broken generalization chain
    # or non-monotone levels would recode *wrongly*, not loudly — refuse
    # up front (memoized per hierarchy object, so lattice searches pay
    # this once).  Raises repro.lint.LintError with the diagnostics.
    ensure_valid_hierarchies(
        {attribute: hierarchies[attribute] for attribute in qi_names}
    )
    for attribute in qi_names:
        hierarchies[attribute].check_level(levels[attribute])
    return qi_names


def packed_group_labels(
    columns: Sequence[tuple[Any, Level, LevelTable, int]],
    suppressed_rows: Any = None,
) -> Any:
    """Per-row group labels from per-column code gathers (mixed-radix).

    ``columns`` holds ``(base_codes, level_tables_level, table, level)`` per
    QI attribute; each column contributes ``gather[base]`` (with suppressed
    rows redirected to the level's suppression code), packed into one
    integer per row by :func:`repro.kernels.pack_columns` (which densifies
    early only if the product would overflow ``int64``).  All array work
    runs on the active kernel backend (:mod:`repro.kernels`); the returned
    labels are a kernel array of raw packed keys, not yet densified.
    """
    kernels = active_kernels()
    packed: list[tuple[Any, int]] = []
    for base_codes, built, table, level in columns:
        codes = kernels.gather(built.gather, base_codes)
        if suppressed_rows is not None and len(suppressed_rows):
            suppression_code, radix = table.suppression_code(level)
            kernels.scatter_fill(codes, suppressed_rows, suppression_code)
        else:
            radix = built.count
        packed.append((codes, radix))
    combined = pack_columns(kernels, packed)
    if combined is None:
        raise AnonymizationError("grouping requires at least one attribute")
    return combined


def recode(
    dataset: Dataset,
    hierarchies: Mapping[str, Hierarchy],
    levels: Levels,
    suppress: Iterable[int] = (),
    name: str | None = None,
) -> Anonymization:
    """Apply a full-domain recoding (columnar plane).

    Parameters
    ----------
    dataset:
        The table to anonymize.
    hierarchies:
        Hierarchy per quasi-identifier attribute name; every QI of the schema
        must be covered.
    levels:
        Generalization level per QI attribute.
    suppress:
        Row indices to fully suppress (all QI cells become ``"*"``).
    name:
        Optional label; defaults to a description of the level vector.
    """
    schema = dataset.schema
    qi_names = _validate_recode(dataset, hierarchies, levels)
    suppressed = frozenset(suppress)
    obs_metrics().inc("engine.recode.calls")
    obs_metrics().inc("engine.recode.rows", len(dataset))

    with obs_tracer().span(
        "recode",
        category="engine",
        rows=len(dataset),
        attributes=len(qi_names),
        suppressed=len(suppressed),
    ):
        kernels = active_kernels()
        view = dataset.columns()
        per_attribute: list[tuple[Any, Level, LevelTable, int]] = []
        released_columns: dict[str, list[Any]] = {}
        for attribute in qi_names:
            column = view.column(attribute)
            table = level_table(column, hierarchies[attribute])
            level = levels[attribute]
            built = table.level(level)
            base_codes = kernels.from_code_buffer(column.codes)
            per_attribute.append((base_codes, built, table, level))
            values = built.values
            released_columns[attribute] = [values[code] for code in column.codes]

        # Assemble released rows column-wise; non-QI columns pass through.
        source_columns: list[Sequence[Any]] = [
            released_columns[attribute]
            if attribute in released_columns
            else dataset.column(attribute)
            for attribute in schema.names
        ]
        released_rows = list(zip(*source_columns)) if len(dataset) else []
        if suppressed:
            qi_positions = [schema.index_of(attribute) for attribute in qi_names]
            for row_index in sorted(suppressed):
                if not 0 <= row_index < len(released_rows):
                    continue  # Anonymization() rejects out-of-range indices
                cells = list(released_rows[row_index])
                for position in qi_positions:
                    cells[position] = SUPPRESSED
                released_rows[row_index] = tuple(cells)

        label = name or "recode[" + ",".join(
            f"{attribute}={levels[attribute]}" for attribute in qi_names
        ) + "]"
        anonymization = Anonymization(
            dataset,
            dataset.replace_rows(released_rows),
            suppressed=suppressed,
            levels={attribute: levels[attribute] for attribute in qi_names},
            name=label,
        )

    released = anonymization.released
    suppressed_rows = kernels.asarray(sorted(suppressed)) if suppressed else None

    def build_classes() -> EquivalenceClasses:
        labels = packed_group_labels(per_attribute, suppressed_rows)
        return EquivalenceClasses.from_labels(
            kernels.tolist(labels), released.quasi_identifier_tuple
        )

    anonymization._classes_factory = build_classes
    return anonymization


def recode_rowwise(
    dataset: Dataset,
    hierarchies: Mapping[str, Hierarchy],
    levels: Levels,
    suppress: Iterable[int] = (),
    name: str | None = None,
) -> Anonymization:
    """The reference row-plane recoding (cell-at-a-time hierarchy walks).

    Kept as the executable specification of :func:`recode`: the columnar
    plane must produce byte-identical releases and partitions.  Used by the
    golden/property tests and the recode benchmark's baseline; production
    callers should use :func:`recode`.
    """
    schema = dataset.schema
    qi_names = _validate_recode(dataset, hierarchies, levels)

    suppressed = frozenset(suppress)
    qi_positions = {name: schema.index_of(name) for name in qi_names}
    released_rows: list[tuple[Any, ...]] = []
    for row_index, row in enumerate(dataset):
        cells = list(row)
        for attribute in qi_names:
            position = qi_positions[attribute]
            if row_index in suppressed:
                cells[position] = SUPPRESSED
            else:
                cells[position] = hierarchies[attribute].generalize(
                    row[position], levels[attribute]
                )
        released_rows.append(tuple(cells))

    label = name or "recode[" + ",".join(
        f"{attribute}={levels[attribute]}" for attribute in qi_names
    ) + "]"
    return Anonymization(
        dataset,
        dataset.replace_rows(released_rows),
        suppressed=suppressed,
        levels={attribute: levels[attribute] for attribute in qi_names},
        name=label,
    )


def recode_node(
    dataset: Dataset,
    hierarchies: Mapping[str, Hierarchy],
    node: Sequence[int],
    suppress: Iterable[int] = (),
    name: str | None = None,
) -> Anonymization:
    """Apply a lattice node (level vector in QI schema order)."""
    qi_names = dataset.schema.quasi_identifier_names
    if len(node) != len(qi_names):
        raise AnonymizationError(
            f"node {tuple(node)!r} has {len(node)} levels, expected {len(qi_names)}"
        )
    levels = dict(zip(qi_names, node))
    return recode(dataset, hierarchies, levels, suppress=suppress, name=name)


def released_with_local_cells(
    dataset: Dataset,
    qi_cells: Sequence[Mapping[str, Any]],
    suppressed: Iterable[int] = (),
    name: str = "local-recoding",
) -> Anonymization:
    """Build an anonymization from per-row generalized QI cells.

    ``qi_cells[i]`` maps QI attribute names to the released value for row
    ``i``.  Used by local recoders (Mondrian) that do not share one level
    vector across the table.
    """
    schema = dataset.schema
    qi_names = set(schema.quasi_identifier_names)
    released_rows = []
    for row_index, row in enumerate(dataset):
        cells = list(row)
        row_map = qi_cells[row_index]
        extra = set(row_map) - qi_names
        if extra:
            raise AnonymizationError(
                f"row {row_index} recodes non-QI attributes {sorted(extra)}"
            )
        missing = qi_names - set(row_map)
        if missing:
            raise AnonymizationError(
                f"row {row_index} missing recoded values for {sorted(missing)}"
            )
        for attribute, value in row_map.items():
            cells[schema.index_of(attribute)] = value
        released_rows.append(tuple(cells))
    return Anonymization(
        dataset,
        dataset.replace_rows(released_rows),
        suppressed=suppressed,
        levels=None,
        name=name,
    )
