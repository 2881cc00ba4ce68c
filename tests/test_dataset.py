"""Tests for repro.datasets.dataset."""

import pickle

import pytest

from repro.datasets.dataset import Dataset, DatasetError, dataset_from_records
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


class TestRendering:
    def test_to_text_contains_values(self, data):
        text = data.to_text()
        assert "13053" in text
        assert "disease" in text

    def test_to_text_truncates(self, data):
        text = data.to_text(max_rows=1)
        assert "2 more rows" in text
