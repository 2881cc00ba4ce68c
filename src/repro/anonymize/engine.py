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

Because every tuple is kept, index-aligned, a release is fully determined by
the original plus its *recoding*, and that is all an :class:`Anonymization`
stores:

* a full-domain release (:func:`recode`) holds, per QI attribute, the
  ``gather``/``decode`` of its level over the original's interned base codes
  (:mod:`repro.hierarchy.codes`), plus the suppressed rows — nothing per row;
* a local release (:func:`released_from_classes`, which every local
  constructor goes through) holds its distinct released QI rows, keyed by
  the *identity* of their cells (two objects are never merged by
  equality), plus one code per row naming its distinct row.

The released table is a lazy view, built on first access.  The partition
groups codes — packed per-column codes for full-domain releases, the distinct
rows by equality for local ones — and the loss measures score each distinct
released code once (:meth:`Anonymization.released_codes`).  A pickle (cache
entry, pool result) carries the original's fingerprint plus the recoding,
never rows, and unpickles in a process that holds no dataset; the reader
calls :meth:`Anonymization.bind` with the original table before touching
rows or classes.
"""

from __future__ import annotations

from array import array
from typing import Any, Iterable, Mapping, Sequence

from ..datasets.dataset import Dataset
from ..hierarchy.base import SUPPRESSED, Hierarchy
from ..hierarchy.codes import level_table
from ..kernels import active as active_kernels, pack_columns
from ..lint.api import ensure_valid_hierarchies
from ..obs import metrics as obs_metrics
from ..obs import tracer as obs_tracer
from .equivalence import EquivalenceClasses

Levels = Mapping[str, int]

#: ``(labels, rows, decodes)`` of :meth:`Anonymization.released_codes`.
ReleasedCodes = tuple[Sequence[int], list[tuple[int, ...]], list[tuple[Any, ...]]]


class AnonymizationError(ValueError):
    """Raised for inconsistent anonymization inputs."""


def _compact(values: Sequence[int]) -> array:
    """``values`` (non-negative ints) in the narrowest array typecode."""
    top = max(values, default=0)
    for typecode in "BHI":
        if top < 1 << (8 * array(typecode).itemsize):
            return array(typecode, values)
    return array("q", values)


def _suppression_code(decode: tuple[Any, ...]) -> int:
    """The code suppressed rows take in a level's ``decode``: the
    suppression token's own code, or the next fresh code without one
    (see :meth:`repro.hierarchy.codes.LevelTable.suppression_code`)."""
    for code, value in enumerate(decode):
        if isinstance(value, str) and value == SUPPRESSED:
            return code
    return len(decode)


def _local_recoding(
    labels: Sequence[int], class_rows: Sequence[tuple[Any, ...]]
) -> tuple[tuple[tuple[Any, ...], ...], array]:
    """``(rows, codes)`` of a local release: the distinct released QI rows
    by cell identity, in first-occurrence row order, and each row's index
    among them.  Row ``i`` releases ``class_rows[labels[i]]``."""
    kernels = active_kernels()
    labels = kernels.asarray(labels)
    reps, grouped, count = kernels.group(labels)
    class_of_group = kernels.tolist(kernels.gather(labels, reps))
    first_row = kernels.tolist(reps)
    lookup: dict[tuple[int, ...], int] = {}
    rows: list[tuple[Any, ...]] = []
    code_of_group = [0] * count
    for group in sorted(range(count), key=first_row.__getitem__):
        cells = class_rows[class_of_group[group]]
        code = lookup.setdefault(tuple(map(id, cells)), len(rows))
        if code == len(rows):
            rows.append(cells)
        code_of_group[group] = code
    return tuple(rows), _compact(kernels.tolist(kernels.gather(code_of_group, grouped)))


class Anonymization:
    """An anonymized release of a data set.

    Holds the original table and the recoding that produces the released
    one (see the module docstring), plus provenance: which rows were
    suppressed, which algorithm produced it, and — for full-domain
    recodings — the hierarchy level vector used.  The released table
    (:attr:`released`) is built on first access.

    A pickled release carries no rows; after unpickling it must be bound to
    its original with :meth:`bind` before :attr:`original`, :attr:`released`
    or :attr:`equivalence_classes` are read.

    Parameters
    ----------
    original:
        The raw microdata.
    released:
        The generalized table; same schema shape and row count as the
        original, same values for non-QI columns.  The recoding is derived
        from its QI cells.
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
        schema = original.schema
        if schema.names != released.schema.names:
            raise AnonymizationError("released schema must match original schema")
        qi_names = set(schema.quasi_identifier_names)
        for attribute in schema.names:
            if attribute not in qi_names and (
                released.column(attribute) != original.column(attribute)
            ):
                raise AnonymizationError(
                    f"released column {attribute!r} differs from the original's; "
                    "only quasi-identifiers may be recoded"
                )
        self._setup(
            original, suppressed, levels, name,
            local=_local_recoding(
                range(len(released)), list(released.quasi_identifier_tuples())
            ),
        )
        self._released = released

    @classmethod
    def _of(
        cls,
        original: Dataset,
        suppressed: Iterable[int],
        levels: Levels | None,
        name: str,
        columns: tuple[tuple[array, tuple[Any, ...]], ...] | None = None,
        local: tuple[tuple[tuple[Any, ...], ...], array] | None = None,
    ) -> "Anonymization":
        """A release from its recoding (the engine's own constructors)."""
        instance = cls.__new__(cls)
        instance._setup(original, suppressed, levels, name, columns, local)
        return instance

    def _setup(
        self,
        original: Dataset,
        suppressed: Iterable[int],
        levels: Levels | None,
        name: str,
        columns: tuple[tuple[array, tuple[Any, ...]], ...] | None = None,
        local: tuple[tuple[tuple[Any, ...], ...], array] | None = None,
    ) -> None:
        self.suppressed = frozenset(suppressed)
        out_of_range = [i for i in self.suppressed if not 0 <= i < len(original)]
        if out_of_range:
            raise AnonymizationError(f"suppressed indices out of range: {out_of_range}")
        self.levels = dict(levels) if levels is not None else None
        self.name = name
        self._original: Dataset | None = original
        self._fingerprint: str | None = None
        self._row_count = len(original)
        # Exactly one of the two recodings is set (see the module docstring).
        self._columns = columns
        self._local = local
        self._released: Dataset | None = None
        self._classes: EquivalenceClasses | None = None
        self._codes: ReleasedCodes | None = None

    def __len__(self) -> int:
        return self._row_count

    # -- pickling and binding -------------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        # The recoding and the original's fingerprint, never rows: the
        # reader holds the original and binds it (see `bind`).
        return {
            "fingerprint": self._original_fingerprint(),
            "rows": self._row_count,
            "suppressed": _compact(sorted(self.suppressed)),
            "levels": self.levels,
            "name": self.name,
            "columns": self._columns,
            "local": self._local,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.suppressed = frozenset(state["suppressed"])
        self.levels = state["levels"]
        self.name = state["name"]
        self._original = None
        self._fingerprint = state["fingerprint"]
        self._row_count = state["rows"]
        self._columns = state["columns"]
        self._local = state["local"]
        self._released = None
        self._classes = None
        self._codes = None

    def _original_fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = self.original.fingerprint()
        return self._fingerprint

    def bind(self, original: Dataset) -> "Anonymization":
        """Attach the original table this release was computed from.

        Returns ``self``.  Raises :class:`AnonymizationError` unless
        ``original`` has this release's fingerprint.
        """
        if original is self._original:
            return self
        if (
            len(original) != self._row_count
            or original.fingerprint() != self._original_fingerprint()
        ):
            raise AnonymizationError(
                f"release {self.name!r} was not computed from this table "
                "(dataset fingerprint mismatch)"
            )
        self._original = original
        return self

    @property
    def original(self) -> Dataset:
        """The raw microdata (requires a bound release)."""
        if self._original is None:
            raise AnonymizationError(
                f"release {self.name!r} is not bound to its original table; "
                "call bind(original) first"
            )
        return self._original

    def __repr__(self) -> str:
        return (
            f"Anonymization({self.name!r}, rows={len(self)}, "
            f"suppressed={len(self.suppressed)}, levels={self.levels})"
        )

    # -- derived views --------------------------------------------------------

    @property
    def released(self) -> Dataset:
        """The released table (built from the recoding on first access)."""
        if self._released is None:
            original = self.original
            schema = original.schema
            qi_columns = dict(
                zip(schema.quasi_identifier_names, self._released_qi_columns())
            )
            columns = [
                qi_columns[attribute]
                if attribute in qi_columns
                else original.column(attribute)
                for attribute in schema.names
            ]
            self._released = original.replace_rows(
                list(zip(*columns)) if len(original) else []
            )
        return self._released

    def _released_qi_columns(self) -> list[list[Any]]:
        """Each QI column of the release, in row order."""
        original = self.original
        if self._local is not None:
            rows, codes = self._local
            return [[per_distinct[code] for code in codes] for per_distinct in zip(*rows)]
        view = original.columns()
        columns = []
        for attribute, (gather, decode) in zip(
            original.schema.quasi_identifier_names, self._columns
        ):
            values = [decode[code] for code in gather]
            cells = [values[code] for code in view.column(attribute).codes]
            for row_index in self.suppressed:
                cells[row_index] = SUPPRESSED
            columns.append(cells)
        return columns

    @property
    def equivalence_classes(self) -> EquivalenceClasses:
        """Row partition by released QI tuple (grouped from codes, cached)."""
        if self._classes is None:
            if self._local is not None:
                self._classes = self._local_classes()
            else:
                self._classes = self._full_domain_classes()
        return self._classes

    def _local_classes(self) -> EquivalenceClasses:
        """Group the distinct rows by equality, then label every row."""
        self.original  # noqa: B018 — an unbound release raises here
        rows, codes = self._local
        lookup: dict[tuple[Any, ...], int] = {}
        class_of_row = [lookup.setdefault(cells, len(lookup)) for cells in rows]
        return EquivalenceClasses.from_labels(
            [class_of_row[code] for code in codes],
            lambda row_index: rows[codes[row_index]],
        )

    def _full_domain_classes(self) -> EquivalenceClasses:
        """Group rows by their packed per-column codes (mixed radix).

        Each column contributes ``gather[base]``, with suppressed rows
        redirected to the level's suppression code, packed into one integer
        per row by :func:`repro.kernels.pack_columns`.  Class keys are
        decoded from one representative row per class.
        """
        original = self.original
        kernels = active_kernels()
        view = original.columns()
        suppressed = self.suppressed
        suppressed_rows = kernels.asarray(sorted(suppressed)) if suppressed else None
        packed: list[tuple[Any, int]] = []
        key_columns: list[tuple[Sequence[int], list[Any]]] = []
        for attribute, (gather, decode) in zip(
            original.schema.quasi_identifier_names, self._columns
        ):
            base = view.column(attribute).codes
            codes = kernels.gather(gather, kernels.from_code_buffer(base))
            radix = len(decode)
            if suppressed_rows is not None:
                code = _suppression_code(decode)
                radix = max(radix, code + 1)
                kernels.scatter_fill(codes, suppressed_rows, code)
            packed.append((codes, radix))
            key_columns.append((base, [decode[code] for code in gather]))
        labels, _ = pack_columns(kernels, packed)
        suppressed_key = (SUPPRESSED,) * len(key_columns)

        def key_of_row(row_index: int) -> tuple[Any, ...]:
            if row_index in suppressed:
                return suppressed_key
            return tuple(values[base[row_index]] for base, values in key_columns)

        return EquivalenceClasses.from_labels(kernels.tolist(labels), key_of_row)

    def released_codes(self) -> ReleasedCodes:
        """The release over its distinct released QI rows (cached).

        Returns ``(labels, rows, decodes)``: ``rows[labels[i]]`` holds row
        ``i``'s per-QI codes in QI schema order, and ``decodes[q][code]`` is
        the exact released object.  A full-domain release has one distinct
        row per equivalence class; a local release one per identity-distinct
        row.  Measures score each distinct code once through this instead
        of re-reading the released table.
        """
        if self._codes is None:
            if self._local is not None:
                self._codes = self._local_codes()
            else:
                self._codes = self._full_domain_codes()
        return self._codes

    def _local_codes(self) -> ReleasedCodes:
        qi_names = self.original.schema.quasi_identifier_names
        rows, codes = self._local
        per_qi: list[list[int]] = []
        decodes: list[tuple[Any, ...]] = []
        for position in range(len(qi_names)):
            lookup: dict[int, int] = {}
            decode: list[Any] = []
            column = []
            for cells in rows:
                cell = cells[position]
                code = lookup.setdefault(id(cell), len(decode))
                if code == len(decode):
                    decode.append(cell)
                column.append(code)
            per_qi.append(column)
            decodes.append(tuple(decode))
        distinct = list(zip(*per_qi)) if per_qi else [()] * len(rows)
        return codes, distinct, decodes

    def _full_domain_codes(self) -> ReleasedCodes:
        classes = self.equivalence_classes
        original = self.original
        view = original.columns()
        suppressed = self.suppressed
        reps = [members[0] for members in classes]
        per_qi: list[list[int]] = []
        decodes: list[tuple[Any, ...]] = []
        for attribute, (gather, decode) in zip(
            original.schema.quasi_identifier_names, self._columns
        ):
            base = view.column(attribute).codes
            code = _suppression_code(decode)
            if suppressed and code == len(decode):
                decode = decode + (SUPPRESSED,)
            per_qi.append(
                [code if rep in suppressed else gather[base[rep]] for rep in reps]
            )
            decodes.append(decode)
        return classes.class_labels(), list(zip(*per_qi)), decodes

    # -- measures -------------------------------------------------------------

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
        clone = Anonymization.__new__(Anonymization)
        clone.__dict__.update(self.__dict__)
        clone.name = name
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


def _validate_recode(
    dataset: Dataset,
    hierarchies: Mapping[str, Hierarchy],
    levels: Levels,
) -> tuple[str, ...]:
    """Input validation of a full-domain recoding; returns QI names."""
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


def recode(
    dataset: Dataset,
    hierarchies: Mapping[str, Hierarchy],
    levels: Levels,
    suppress: Iterable[int] = (),
    name: str | None = None,
) -> Anonymization:
    """Apply a full-domain recoding (columnar plane).

    Stores each QI level's ``gather``/``decode`` from the per-(column,
    hierarchy) level tables of :mod:`repro.hierarchy.codes`; rows are
    released only when read.

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
        view = dataset.columns()
        columns = []
        for attribute in qi_names:
            table = level_table(view.column(attribute), hierarchies[attribute])
            built = table.level(levels[attribute])
            columns.append((built.gather, built.decode))
        label = name or "recode[" + ",".join(
            f"{attribute}={levels[attribute]}" for attribute in qi_names
        ) + "]"
        return Anonymization._of(
            dataset,
            suppressed,
            {attribute: levels[attribute] for attribute in qi_names},
            label,
            columns=tuple(columns),
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


def released_from_classes(
    dataset: Dataset,
    labels: Sequence[int],
    class_rows: Sequence[tuple[Any, ...]],
    suppressed: Iterable[int] = (),
    name: str = "local-recoding",
) -> Anonymization:
    """Build a local release from per-row class labels.

    Row ``i`` releases ``class_rows[labels[i]]``, a tuple of released cells
    in QI schema order; ``labels`` is a sequence or a kernel array.  Local
    recoders (Mondrian, TDS, BUG) name one released row per class instead
    of one per table row.  Classes are renumbered in first-occurrence row
    order, and classes whose rows hold the same cell objects merge: the
    recoding keys rows by the identity of their cells, so it is as small
    as the number of distinct cell combinations the recoder built.
    """
    if len(labels) != len(dataset):
        raise AnonymizationError(
            f"released table has {len(labels)} rows, original has {len(dataset)}"
        )
    width = len(dataset.schema.quasi_identifier_names)
    for label, cells in enumerate(class_rows):
        if len(cells) != width:
            raise AnonymizationError(
                f"class {label} releases {len(cells)} cells, "
                f"expected {width} quasi-identifiers"
            )
    local = _local_recoding(labels, class_rows)
    return Anonymization._of(dataset, suppressed, None, name, local=local)


def released_with_local_cells(
    dataset: Dataset,
    qi_cells: Sequence[Mapping[str, Any]],
    suppressed: Iterable[int] = (),
    name: str = "local-recoding",
) -> Anonymization:
    """Build an anonymization from per-row generalized QI cells.

    ``qi_cells[i]`` maps QI attribute names to the released value for row
    ``i``; one row map may be shared by many rows.  Rows sharing a map
    form one class of :func:`released_from_classes`.
    """
    qi_names = dataset.schema.quasi_identifier_names
    qi_set = set(qi_names)
    if len(qi_cells) != len(dataset):
        raise AnonymizationError(
            f"released table has {len(qi_cells)} rows, original has {len(dataset)}"
        )
    # ``qi_cells`` keeps every map alive, so a map's id is stable here.
    label_of_map: dict[int, int] = {}
    class_rows: list[tuple[Any, ...]] = []
    labels = []
    for row_index, row_map in enumerate(qi_cells):
        label = label_of_map.setdefault(id(row_map), len(class_rows))
        if label == len(class_rows):
            if row_map.keys() != qi_set:
                extra = set(row_map) - qi_set
                if extra:
                    raise AnonymizationError(
                        f"row {row_index} recodes non-QI attributes {sorted(extra)}"
                    )
                missing = qi_set - set(row_map)
                raise AnonymizationError(
                    f"row {row_index} missing recoded values for {sorted(missing)}"
                )
            class_rows.append(tuple(row_map[attribute] for attribute in qi_names))
        labels.append(label)
    return released_from_classes(dataset, labels, class_rows, suppressed, name)
