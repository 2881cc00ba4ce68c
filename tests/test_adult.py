"""Tests for the synthetic Adult generator and its hierarchies."""

import pytest

from repro.datasets import adult_dataset, adult_hierarchies, adult_schema
from repro.datasets.adult import AGE_BOUNDS


class TestGenerator:
    def test_deterministic(self):
        assert adult_dataset(50, seed=3).rows == adult_dataset(50, seed=3).rows

    def test_seed_changes_data(self):
        assert adult_dataset(50, seed=3).rows != adult_dataset(50, seed=4).rows

    def test_size(self):
        assert len(adult_dataset(123, seed=0)) == 123

    def test_empty(self):
        assert len(adult_dataset(0, seed=0)) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            adult_dataset(-1)

    def test_schema_roles(self):
        schema = adult_schema()
        assert schema.sensitive_names == ("occupation",)
        assert len(schema.quasi_identifier_names) == 7
        assert "salary-class" not in schema.quasi_identifier_names

    def test_ages_within_bounds(self, adult_small):
        low, high = AGE_BOUNDS
        assert all(low <= age <= high for age in adult_small.column("age"))

    def test_marginals_roughly_census_like(self):
        data = adult_dataset(2000, seed=5)
        workclasses = data.column("workclass")
        private_share = workclasses.count("Private") / len(workclasses)
        assert 0.55 < private_share < 0.85
        countries = data.column("native-country")
        us_share = countries.count("United-States") / len(countries)
        assert us_share > 0.8

    def test_age_marital_correlation(self):
        data = adult_dataset(2000, seed=5)
        young_never = [
            row
            for row in data
            if row[0] < 26 and row[3] == "Never-married"
        ]
        young = [row for row in data if row[0] < 26]
        assert young and len(young_never) / len(young) > 0.5


class TestHierarchies:
    def test_every_qi_covered(self, adult_small, adult_h):
        assert set(adult_small.schema.quasi_identifier_names) <= set(adult_h)

    def test_every_value_generalizable(self, adult_small, adult_h):
        for name, hierarchy in adult_h.items():
            for value in adult_small.distinct(name):
                for level in range(hierarchy.height + 1):
                    hierarchy.generalize(value, level)  # must not raise

    def test_keys_are_hierarchy_names(self, adult_h):
        # save_hierarchies writes each hierarchy's own name while
        # load_hierarchies keys by the mapping key: a key that disagrees
        # with the name makes a saved map name two attributes at once.
        for key, hierarchy in adult_h.items():
            assert hierarchy.name == key

    def test_heights(self, adult_h):
        assert adult_h["age"].height == 5
        assert adult_h["sex"].height == 1
        assert adult_h["education"].height == 3

    def test_lattice_size_tractable(self, adult_small, adult_h):
        from repro.hierarchy import Lattice

        lattice = Lattice(
            [adult_h[name] for name in adult_small.schema.quasi_identifier_names]
        )
        assert 1000 < len(lattice) < 10000
