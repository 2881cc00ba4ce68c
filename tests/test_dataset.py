"""Tests for repro.datasets.dataset."""

import hashlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import adult_dataset, adult_hierarchies
from repro.datasets.dataset import (
    Dataset,
    DatasetError,
    _fingerprint_token,
    dataset_from_records,
)
from repro.hierarchy.base import Interval
from repro.hierarchy.numeric import Span
from repro.runtime.study import ALGORITHM_FACTORIES
from repro.datasets.schema import (
    AttributeKind,
    Schema,
    insensitive,
    quasi_identifier,
    sensitive,
)


@pytest.fixture
def schema():
    return Schema.of(
        quasi_identifier("zip", AttributeKind.STRING),
        quasi_identifier("age", AttributeKind.NUMERIC),
        sensitive("disease"),
    )


@pytest.fixture
def data(schema):
    return Dataset(
        schema,
        [
            ("13053", 28, "flu"),
            ("13268", 41, "cold"),
            ("13053", 31, "flu"),
        ],
    )


class TestConstruction:
    def test_row_width_validated(self, schema):
        with pytest.raises(DatasetError, match="row 1"):
            Dataset(schema, [("a", 1, "x"), ("b", 2)])

    def test_rows_are_tuples(self, schema):
        data = Dataset(schema, [["13053", 28, "flu"]])
        assert data[0] == ("13053", 28, "flu")
        assert isinstance(data[0], tuple)

    def test_empty_dataset_allowed(self, schema):
        assert len(Dataset(schema, [])) == 0

    def test_from_records(self, schema):
        data = dataset_from_records(
            schema, [{"zip": "13053", "age": 28, "disease": "flu"}]
        )
        assert data[0] == ("13053", 28, "flu")

    def test_from_records_missing_key(self, schema):
        with pytest.raises(DatasetError, match="missing"):
            dataset_from_records(schema, [{"zip": "13053", "age": 28}])


class TestAccess:
    def test_column(self, data):
        assert data.column("age") == (28, 41, 31)

    def test_value(self, data):
        assert data.value(1, "disease") == "cold"

    def test_distinct(self, data):
        assert data.distinct("zip") == {"13053", "13268"}

    def test_qi_tuples(self, data):
        assert data.quasi_identifier_tuples() == (
            ("13053", 28),
            ("13268", 41),
            ("13053", 31),
        )

    def test_qi_tuple_single_row(self, data):
        assert data.quasi_identifier_tuple(2) == ("13053", 31)

    def test_iteration_order(self, data):
        assert [row[1] for row in data] == [28, 41, 31]


class TestDerivation:
    def test_replace_rows(self, data):
        other = data.replace_rows([("x", 1, "y")])
        assert len(other) == 1
        assert len(data) == 3  # original untouched

    def test_select(self, data):
        young = data.select(lambda row: row[1] < 40)
        assert len(young) == 2

    def test_project(self, data):
        projected = data.project(["disease", "age"])
        assert projected.schema.names == ("disease", "age")
        assert projected[0] == ("flu", 28)

    def test_head(self, data):
        assert len(data.head(2)) == 2

    def test_with_roles(self, data):
        from repro.datasets.schema import AttributeRole

        relabeled = data.with_roles({"age": AttributeRole.INSENSITIVE})
        assert relabeled.schema.quasi_identifier_names == ("zip",)

    def test_equality_and_hash(self, data, schema):
        clone = Dataset(schema, list(data.rows))
        assert clone == data
        assert hash(clone) == hash(data)
        assert data != data.head(2)


class TestPickling:
    def test_round_trip_equal(self, data):
        clone = pickle.loads(pickle.dumps(data))
        assert clone == data
        assert clone.fingerprint() == data.fingerprint()

    def test_unpickled_caches_rebuild(self, data):
        data.column("zip")
        data.columns().column("zip")
        clone = pickle.loads(pickle.dumps(data))
        column = clone.column("zip")
        assert clone.column("zip") is column
        assert clone.columns() is clone.columns()
        assert clone.columns().column("zip").decode == ("13053", "13268")

    def test_derived_caches_are_not_pickled(self, data):
        from repro.anonymize.algorithms import Mondrian

        release = Mondrian(1).anonymize(data)
        before = len(pickle.dumps(release))
        for table in (release.original, release.released):
            for name in table.schema.names:
                table.columns().column(name)
        assert len(pickle.dumps(release)) == before

    def test_loads_pickles_that_carry_caches(self, data, monkeypatch):
        # The default slots state (as pickled before Dataset defined
        # __getstate__) includes the column memo and the columnar view.
        data.columns().column("age")
        monkeypatch.setattr(
            Dataset,
            "__getstate__",
            lambda self: (
                None,
                {name: getattr(self, name) for name in Dataset.__slots__},
            ),
        )
        legacy = pickle.dumps(data)
        monkeypatch.undo()
        assert b"_columnar" in legacy
        clone = pickle.loads(legacy)
        assert clone == data
        assert clone.column("age") is clone.column("age")
        assert clone.columns().column("age").decode == (28, 41, 31)


def reference_fingerprint(dataset):
    """The per-cell fingerprint loop: one token and one update per cell."""
    hasher = hashlib.sha256()
    hasher.update(f"rows:{len(dataset)}\x1e".encode("utf-8"))
    attributes = dataset.schema.attributes
    for position in sorted(range(len(attributes)), key=lambda i: attributes[i].name):
        attribute = attributes[position]
        hasher.update(
            f"col:{attribute.name}|{attribute.kind.value}|"
            f"{attribute.role.value}\x1e".encode("utf-8")
        )
        for row in dataset.rows:
            hasher.update(_fingerprint_token(row[position]))
    return hasher.hexdigest()


#: Shared string objects: the same object in many cells.
SHARED_STRINGS = ("13053", "flu", "", "a\x00")

set_elements = st.one_of(
    st.integers(-3, 3), st.booleans(), st.text(max_size=2), st.just(7.0)
)
plain_cells = st.one_of(
    st.sampled_from(SHARED_STRINGS),
    st.text(max_size=4),
    # Freshly built equal strings: equal values, distinct objects.
    st.text(max_size=3).map(lambda text: "".join(list(text + "x"))),
    st.integers(min_value=-(2**70), max_value=2**70),
)
#: Scalars that compare equal across types: ``True == 1``, ``7 == 7.0``,
#: ``0.0 == -0.0``; NaN equals nothing.
scalar_cells = st.one_of(
    st.integers(-2, 8),
    st.booleans(),
    st.sampled_from([7, 7.0, 0.0, -0.0, 1, True, float("nan")]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.builds(float, st.just("nan")),
)
mixed_cells = st.one_of(
    plain_cells,
    scalar_cells,
    st.sets(set_elements, max_size=3),
    st.frozensets(set_elements, max_size=3),
    st.builds(Interval, st.integers(-5, 5), st.integers(6, 9)),
    st.builds(Span, st.integers(-5, 5), st.floats(5, 9)),
    st.none(),
)


@st.composite
def fingerprint_tables(draw):
    """Small tables whose columns are plain (``str``/``int``), scalars
    that are equal across types, or anything."""
    rows = draw(st.integers(min_value=0, max_value=12))
    width = draw(st.integers(min_value=1, max_value=3))
    columns = [
        draw(
            st.lists(
                draw(st.sampled_from([plain_cells, scalar_cells, mixed_cells])),
                min_size=rows,
                max_size=rows,
            )
        )
        for _ in range(width)
    ]
    schema = Schema.of(
        *(quasi_identifier(f"c{index}", AttributeKind.STRING) for index in range(width))
    )
    return Dataset(schema, list(zip(*columns)) if rows else [])


class TestFingerprint:
    @given(fingerprint_tables())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_cell_reference(self, table):
        assert table.fingerprint() == reference_fingerprint(table)
        clone = pickle.loads(pickle.dumps(table))
        assert clone.fingerprint() == reference_fingerprint(table)

    def test_distinguishes_equal_values_of_other_types(self, schema):
        def table(age):
            return Dataset(schema, [("13053", 7, "flu"), ("13053", age, "flu")])

        tables = [table(age) for age in (7, 7.0, True, 0.0, -0.0, "7")]
        for each in tables:
            assert each.fingerprint() == reference_fingerprint(each)
        assert len({each.fingerprint() for each in tables}) == 6

    def test_memoized_column_gives_the_same_digest(self, data):
        before = data.fingerprint()
        data.column("age")
        assert data.fingerprint() == before == reference_fingerprint(data)

    @pytest.mark.parametrize("name", sorted(ALGORITHM_FACTORIES))
    def test_every_algorithm_release(self, name):
        original = adult_dataset(200, seed=3)
        release = ALGORITHM_FACTORIES[name](k=3).anonymize(
            original, adult_hierarchies()
        )
        for table in (release.released, pickle.loads(pickle.dumps(release.released))):
            assert table.fingerprint() == reference_fingerprint(table)


class TestRendering:
    def test_to_text_contains_values(self, data):
        text = data.to_text()
        assert "13053" in text
        assert "disease" in text

    def test_to_text_truncates(self, data):
        text = data.to_text(max_rows=1)
        assert "2 more rows" in text
