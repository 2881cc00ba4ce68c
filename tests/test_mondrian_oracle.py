"""Ground truth for Mondrian over rank codes.

``Mondrian`` cuts on per-row integer ranks and releases one shared summary
per partition.  The row-by-row implementation it replaced lives here as the
reference oracle: every split attempt re-sorts the partition with a key
function (value for numeric attributes, ``str`` for categorical ones) and
compares each row with the median, and every row gets its own summary.
Small random tables — a numeric QI mixing ``int``, ``float`` and ``bool``
(``7`` beside ``7.0``, ``0.0`` beside ``-0.0``), a categorical QI whose
values collide under ``str`` (``1``/``"1"``) or are equal while their
``str`` differs (``7``/``7.0``, ``True``/``1``), and a sensitive column —
are driven through both kernel backends.  The partition lists must be
equal including order (which pins the relaxed tie distribution), the
released cells equal under ``==`` and per cell under ``type``/``repr``,
and the errors equal.  Table 1 and Adult 300 are checked the same way,
and Adult 30k (a deep tree, split one level per pass) on its partitions.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.anonymize.algorithms import Mondrian
from repro.datasets import Dataset, adult_dataset, paper_tables, read_csv, write_csv
from repro.datasets.schema import (
    AttributeKind,
    Schema,
    SchemaError,
    insensitive,
    quasi_identifier,
    sensitive,
)
from repro.hierarchy.numeric import Span
from repro.kernels import HAVE_NUMPY, force_backend

BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])

#: Ints, floats and bools, including equal values of different types.
AGES = (0, 0.0, -0.0, False, True, 1, 1.0, 3, 7, 7.0, 12, 12.5, 19, 30, 30.0)
#: Strings beside numbers whose str() collides with them (1 and "1") and
#: equal numbers whose str() differs (7 and 7.0, True and 1 and 1.0).
CODES = ("1", 1, 1.0, True, "True", "7", 7, 7.0, "a", "b", "10", 10)
ZIPS = ("130", "131", "142", "250")
DISEASES = ("flu", "cold", "hiv", "flu ")


def schema_for(role):
    return Schema.of(
        quasi_identifier("age", AttributeKind.NUMERIC),
        quasi_identifier("code", AttributeKind.CATEGORICAL),
        role("disease"),
        quasi_identifier("zip", AttributeKind.STRING),
    )


rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(AGES),
        st.sampled_from(CODES),
        st.sampled_from(DISEASES),
        st.sampled_from(ZIPS),
    ),
    min_size=0,
    max_size=40,
)

common = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# -- the row-by-row oracle -----------------------------------------------------


def _sensitive_position(algorithm, dataset):
    attribute = algorithm.sensitive_attribute
    if attribute is None:
        names = dataset.schema.sensitive_names
        if len(names) != 1:
            raise SchemaError(
                "dataset does not have exactly one sensitive attribute; "
                "pass sensitive_attribute explicitly"
            )
        attribute = names[0]
    return dataset.schema.index_of(attribute)


def _extent(dataset, attribute, kind):
    if kind is AttributeKind.NUMERIC:
        full = dataset.column(attribute)
        return max(full) - min(full)
    return len(dataset.distinct(attribute))


def _spread(dataset, rows, attribute, kind, extent):
    column = dataset.column(attribute)
    values = [column[r] for r in rows]
    if kind is AttributeKind.NUMERIC:
        if extent == 0:
            return 0.0
        return (max(values) - min(values)) / extent
    distinct = len(set(values))
    if extent <= 1:
        return 0.0
    return (distinct - 1) / (extent - 1)


def _before(value, pivot, kind):
    if kind is AttributeKind.NUMERIC:
        return value < pivot
    return str(value) < str(pivot)


def _diverse_enough(algorithm, dataset, rows, position):
    if algorithm.l_diversity is None:
        return True
    distinct = set()
    for row in rows:
        distinct.add(dataset[row][position])
        if len(distinct) >= algorithm.l_diversity:
            return True
    return False


def _split(algorithm, dataset, rows, attribute, kind, position):
    column = dataset.column(attribute)
    if kind is AttributeKind.NUMERIC:
        ordered = sorted(rows, key=lambda r: column[r])
    else:
        ordered = sorted(rows, key=lambda r: str(column[r]))
    middle = len(ordered) // 2
    if algorithm.relaxed:
        left, right = ordered[:middle], ordered[middle:]
    else:
        median_value = column[ordered[middle]]
        left = [r for r in ordered if _before(column[r], median_value, kind)]
        right = [
            r for r in ordered if not _before(column[r], median_value, kind)
        ]
    if len(left) >= algorithm.k and len(right) >= algorithm.k:
        if _diverse_enough(algorithm, dataset, left, position) and (
            _diverse_enough(algorithm, dataset, right, position)
        ):
            return left, right
    return None


def reference_partitions(algorithm, dataset):
    """Mondrian partitioning, one key-function sort per split attempt."""
    if not len(dataset):
        return []
    position = None
    if algorithm.l_diversity is not None:
        position = _sensitive_position(algorithm, dataset)
    qi = [(a.name, a.kind) for a in dataset.schema.quasi_identifiers]
    extents = {}
    for attribute, kind in qi:
        extents[attribute] = _extent(dataset, attribute, kind)
        if kind is AttributeKind.NUMERIC:
            for row, value in enumerate(dataset.column(attribute)):
                if value != value:
                    raise ValueError(
                        f"numeric quasi-identifier {attribute!r} holds NaN "
                        f"(first at row {row}); Mondrian cannot order it"
                    )
    finished = []
    pending = [list(range(len(dataset)))]
    while pending:
        rows = pending.pop()
        by_spread = sorted(
            qi,
            key=lambda item: _spread(
                dataset, rows, item[0], item[1], extents[item[0]]
            ),
            reverse=True,
        )
        for attribute, kind in by_spread:
            cut = _split(algorithm, dataset, rows, attribute, kind, position)
            if cut is not None:
                pending.extend(cut)
                break
        else:
            finished.append(rows)
    return finished


def _summarize(dataset, rows, attribute, kind):
    column = dataset.column(attribute)
    values = [column[r] for r in rows]
    if kind is AttributeKind.NUMERIC:
        low, high = min(values), max(values)
        return values[0] if low == high else Span(float(low), float(high))
    distinct = frozenset(values)
    if len(distinct) == 1:
        return values[0]
    return distinct


def reference_released_qi(algorithm, dataset):
    """Released QI tuples, each row summarized on its own."""
    qi = [(a.name, a.kind) for a in dataset.schema.quasi_identifiers]
    released = [None] * len(dataset)
    for rows in reference_partitions(algorithm, dataset):
        cells = tuple(
            _summarize(dataset, rows, attribute, kind) for attribute, kind in qi
        )
        for row in rows:
            released[row] = cells
    return released


# -- comparison helpers --------------------------------------------------------


def cell_identity(cell):
    """A cell's type and repr; a frozenset's elements as sorted reprs (its
    own repr follows the process's string hashing)."""
    if isinstance(cell, frozenset):
        return frozenset, sorted(map(repr, cell))
    return type(cell), repr(cell)


def outcome(run):
    """``("ok", value)`` or ``("error", type, message)``."""
    try:
        return ("ok", run())
    except (ValueError, TypeError) as exc:
        return ("error", type(exc), str(exc))


# -- tests ---------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestMondrianAgainstOracle:
    @common
    @given(
        rows=rows_strategy,
        k=st.integers(1, 5),
        relaxed=st.booleans(),
        l_diversity=st.sampled_from((None, 1, 2, 3)),
        role=st.sampled_from((sensitive, sensitive, sensitive, insensitive)),
    )
    def test_partitions_and_release_match(
        self, backend, rows, k, relaxed, l_diversity, role
    ):
        dataset = Dataset(schema_for(role), rows)
        algorithm = Mondrian(k, relaxed=relaxed, l_diversity=l_diversity)
        expected = outcome(lambda: reference_partitions(algorithm, dataset))
        with force_backend(backend):
            actual = outcome(lambda: algorithm.partitions(dataset))
        assert actual == expected
        if expected[0] != "ok" or len(dataset) < k:
            return

        reference = reference_released_qi(algorithm, dataset)
        with force_backend(backend):
            release = algorithm.anonymize(dataset)
        released = list(release.released.quasi_identifier_tuples())
        assert released == reference
        assert [list(map(cell_identity, cells)) for cells in released] == [
            list(map(cell_identity, cells)) for cells in reference
        ]
        assert release.released.column("disease") == dataset.column("disease")

    @common
    @given(
        rows=rows_strategy,
        k=st.integers(1, 3),
        relaxed=st.booleans(),
        nan_at=st.integers(0, 39),
    )
    def test_nan_raises_the_oracle_error(self, backend, rows, k, relaxed, nan_at):
        if not rows:
            return
        rows = list(rows)
        row = rows[nan_at % len(rows)]
        rows[nan_at % len(rows)] = (math.nan,) + row[1:]
        dataset = Dataset(schema_for(sensitive), rows)
        algorithm = Mondrian(k, relaxed=relaxed)
        expected = outcome(lambda: reference_partitions(algorithm, dataset))
        assert expected[0] == "error"
        with force_backend(backend):
            assert outcome(lambda: algorithm.partitions(dataset)) == expected

    def test_table1_and_adult(self, backend, adult_small):
        for dataset in (paper_tables.table1(), adult_small):
            for relaxed in (False, True):
                for k in (2, 5):
                    algorithm = Mondrian(k, relaxed=relaxed)
                    with force_backend(backend):
                        partitions = algorithm.partitions(dataset)
                        released = algorithm.anonymize(dataset).released
                    assert partitions == reference_partitions(algorithm, dataset)
                    assert list(released.quasi_identifier_tuples()) == (
                        reference_released_qi(algorithm, dataset)
                    )

    @pytest.fixture(scope="class")
    def adult_30k(self):
        return adult_dataset(30000, seed=3)

    @pytest.mark.parametrize("relaxed", [False, True])
    def test_adult_30k(self, backend, adult_30k, relaxed):
        # Deep trees: about a dozen levels split level by level.
        algorithm = Mondrian(5, relaxed=relaxed)
        with force_backend(backend):
            partitions = algorithm.partitions(adult_30k)
        assert partitions == reference_partitions(algorithm, adult_30k)


class TestInputValidation:
    SCHEMA = Schema.of(
        quasi_identifier("age", AttributeKind.NUMERIC),
        quasi_identifier("group", AttributeKind.CATEGORICAL),
    )
    NAN_ROWS = [
        (1, "a"), (2, "a"), (math.nan, "a"), (3, "a"),
        (4, "a"), (5, "a"), (math.nan, "a"), (6, "a"),
    ]

    @pytest.mark.parametrize("relaxed", [False, True])
    def test_nan_in_numeric_qi_rejected(self, relaxed):
        # Without the check, the NaN rows were released as Span(nan, nan)
        # or hidden inside a neighbour's span, depending on row order.
        algorithm = Mondrian(2, relaxed=relaxed)
        forward = Dataset(self.SCHEMA, self.NAN_ROWS)
        with pytest.raises(ValueError, match=r"'age' holds NaN \(first at row 2\)"):
            algorithm.anonymize(forward)
        backward = Dataset(self.SCHEMA, self.NAN_ROWS[::-1])
        with pytest.raises(ValueError, match=r"'age' holds NaN \(first at row 1\)"):
            algorithm.partitions(backward)

    def test_nan_from_csv_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        write_csv(Dataset(self.SCHEMA, self.NAN_ROWS), path)
        dataset = read_csv(path, self.SCHEMA)
        assert math.isnan(dataset[2][0])
        with pytest.raises(ValueError, match="'age' holds NaN"):
            Mondrian(2).anonymize(dataset)

    def test_categorical_nan_is_ordered_by_str(self):
        schema = Schema.of(quasi_identifier("group", AttributeKind.CATEGORICAL))
        dataset = Dataset(schema, [("b",), (math.nan,), ("a",), ("z",)])
        assert Mondrian(2).partitions(dataset) == [[1, 3], [2, 0]]

    @pytest.mark.parametrize("size", [7, 40])
    def test_unresolvable_sensitive_attribute_raises_at_any_size(self, size):
        # At 7 rows and k=4 no cut is ever tried, so the attribute used to
        # be resolved (and rejected) only on larger tables.
        dataset = Dataset(
            self.SCHEMA, [(row, "ab"[row % 2]) for row in range(size)]
        )
        with pytest.raises(SchemaError, match="exactly one sensitive"):
            Mondrian(4, l_diversity=2).partitions(dataset)
        with pytest.raises(SchemaError, match="unknown attribute"):
            Mondrian(4, l_diversity=2, sensitive_attribute="nope").partitions(
                dataset
            )

    def test_empty_dataset_has_no_partitions(self):
        empty = Dataset(self.SCHEMA, [])
        assert Mondrian(2).partitions(empty) == []
        assert Mondrian(2, relaxed=True, l_diversity=2,
                        sensitive_attribute="group").partitions(empty) == []
