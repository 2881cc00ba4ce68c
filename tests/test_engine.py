"""Tests for the recoding engine and Anonymization result."""

import pytest

from repro.anonymize.engine import (
    Anonymization,
    AnonymizationError,
    recode,
    recode_node,
    released_from_classes,
    released_with_local_cells,
)
from repro.datasets import adult_dataset, paper_tables
from repro.hierarchy import SUPPRESSED
from repro.kernels import HAVE_NUMPY, force_backend


@pytest.fixture
def hierarchies(table1):
    return {
        "Zip Code": paper_tables.zip_hierarchy(table1),
        "Age": paper_tables.age_hierarchy(10, 5),
        "Marital Status": paper_tables.marital_hierarchy(),
    }


class TestRecode:
    def test_identity_recoding(self, table1, hierarchies):
        released = recode(
            table1, hierarchies, {"Zip Code": 0, "Age": 0, "Marital Status": 0}
        )
        assert released.released.rows == table1.rows
        assert released.k() == 1

    def test_levels_recorded(self, table1, hierarchies):
        anonymization = recode(
            table1, hierarchies, {"Zip Code": 1, "Age": 1, "Marital Status": 1}
        )
        assert anonymization.levels == {
            "Zip Code": 1,
            "Age": 1,
            "Marital Status": 1,
        }

    def test_default_name_describes_levels(self, table1, hierarchies):
        anonymization = recode(
            table1, hierarchies, {"Zip Code": 1, "Age": 0, "Marital Status": 0}
        )
        assert "Zip Code=1" in anonymization.name

    def test_non_qi_columns_untouched(self, table1, hierarchies):
        # All columns of table1 are QIs; drop Age to insensitive and check.
        from repro.datasets.schema import AttributeRole

        relabeled = table1.with_roles({"Age": AttributeRole.INSENSITIVE})
        anonymization = recode(
            relabeled,
            {k: v for k, v in hierarchies.items() if k != "Age"},
            {"Zip Code": 1, "Marital Status": 1},
        )
        assert anonymization.released.column("Age") == table1.column("Age")

    def test_missing_hierarchy_rejected(self, table1, hierarchies):
        partial = {k: v for k, v in hierarchies.items() if k != "Age"}
        with pytest.raises(AnonymizationError, match="missing hierarchies"):
            recode(table1, partial, {"Zip Code": 1, "Age": 1, "Marital Status": 1})

    def test_missing_level_rejected(self, table1, hierarchies):
        with pytest.raises(AnonymizationError, match="missing levels"):
            recode(table1, hierarchies, {"Zip Code": 1})

    def test_invalid_level_rejected(self, table1, hierarchies):
        with pytest.raises(Exception):
            recode(
                table1, hierarchies, {"Zip Code": 99, "Age": 1, "Marital Status": 1}
            )

    def test_no_qi_dataset_rejected(self, table1, hierarchies):
        from repro.datasets.schema import AttributeRole

        roles = {name: AttributeRole.INSENSITIVE for name in table1.schema.names}
        with pytest.raises(AnonymizationError, match="no quasi-identifier"):
            recode(table1.with_roles(roles), hierarchies, {})


class TestSuppression:
    def test_suppressed_rows_fully_generalized(self, table1, hierarchies):
        anonymization = recode(
            table1,
            hierarchies,
            {"Zip Code": 1, "Age": 1, "Marital Status": 1},
            suppress=[0, 5],
        )
        assert anonymization.released[0] == (SUPPRESSED, SUPPRESSED, SUPPRESSED)
        assert anonymization.released[5] == (SUPPRESSED, SUPPRESSED, SUPPRESSED)

    def test_suppressed_rows_retained(self, table1, hierarchies):
        anonymization = recode(
            table1,
            hierarchies,
            {"Zip Code": 1, "Age": 1, "Marital Status": 1},
            suppress=[0],
        )
        # Paper Section 3: the data set keeps its size.
        assert len(anonymization) == len(table1)

    def test_suppressed_rows_form_one_class(self, table1, hierarchies):
        anonymization = recode(
            table1,
            hierarchies,
            {"Zip Code": 0, "Age": 0, "Marital Status": 0},
            suppress=[0, 1, 2],
        )
        classes = anonymization.equivalence_classes
        assert classes.class_of(0) == classes.class_of(1) == classes.class_of(2)

    def test_suppression_fraction(self, table1, hierarchies):
        anonymization = recode(
            table1,
            hierarchies,
            {"Zip Code": 1, "Age": 1, "Marital Status": 1},
            suppress=[0, 5],
        )
        assert anonymization.suppression_fraction() == pytest.approx(0.2)

    def test_out_of_range_suppression_rejected(self, table1, hierarchies):
        with pytest.raises(AnonymizationError, match="out of range"):
            recode(
                table1,
                hierarchies,
                {"Zip Code": 1, "Age": 1, "Marital Status": 1},
                suppress=[99],
            )


class TestAnonymization:
    def test_row_count_mismatch_rejected(self, table1):
        with pytest.raises(AnonymizationError, match="rows"):
            Anonymization(table1, table1.head(5))

    def test_recoded_non_qi_column_rejected(self):
        data = adult_dataset(20, seed=1)
        position = data.schema.index_of(data.schema.sensitive_names[0])
        rows = [row[:position] + ("other",) + row[position + 1:] for row in data]
        with pytest.raises(AnonymizationError, match="only quasi-identifiers"):
            Anonymization(data, data.replace_rows(rows))

    def test_k_matches_paper(self, t3a, t3b, t4):
        assert t3a.k() == 3
        assert t3b.k() == 3
        assert t4.k() == 4

    def test_renamed_preserves_classes(self, t3a):
        _ = t3a.equivalence_classes
        clone = t3a.renamed("other")
        assert clone.name == "other"
        assert clone.equivalence_classes.sizes() == t3a.equivalence_classes.sizes()

    def test_repr_mentions_name(self, t3a):
        assert "T3a" in repr(t3a)


class TestRecodeNode:
    def test_node_in_qi_order(self, table1, hierarchies):
        by_node = recode_node(table1, hierarchies, (1, 1, 1))
        by_levels = recode(
            table1, hierarchies, {"Zip Code": 1, "Age": 1, "Marital Status": 1}
        )
        assert by_node.released.rows == by_levels.released.rows

    def test_wrong_arity_rejected(self, table1, hierarchies):
        with pytest.raises(AnonymizationError, match="levels"):
            recode_node(table1, hierarchies, (1, 1))


class TestLocalCells:
    def test_local_release(self, table1):
        qi_cells = [
            {"Zip Code": "1****", "Age": 50, "Marital Status": "*"}
            for _ in range(len(table1))
        ]
        anonymization = released_with_local_cells(table1, qi_cells)
        assert anonymization.k() == len(table1)
        assert anonymization.levels is None

    def test_missing_attribute_rejected(self, table1):
        qi_cells = [{"Zip Code": "1****"} for _ in range(len(table1))]
        with pytest.raises(AnonymizationError, match="missing"):
            released_with_local_cells(table1, qi_cells)

    def test_extra_attribute_rejected(self, table1):
        qi_cells = [
            {
                "Zip Code": "1****",
                "Age": 50,
                "Marital Status": "*",
                "bogus": 1,
            }
            for _ in range(len(table1))
        ]
        with pytest.raises(AnonymizationError, match="non-QI"):
            released_with_local_cells(table1, qi_cells)


class TestReleasedFromClasses:
    """One released row per class, every row labelled with its class."""

    @pytest.mark.parametrize("backend", ["python"] + (["numpy"] if HAVE_NUMPY else []))
    def test_first_occurrence_order_and_identity_merge(self, table1, backend):
        wide = ("1****", 50, "*")
        # Classes 1 and 2 release the same cell objects, so they merge;
        # class 0 releases equal cells that are other objects.  Row 0 is
        # in class 2, so its row comes first.
        equal = ("".join(["1", "****"]), 50, "*")
        class_rows = [equal, wide, wide]
        labels = [2, 1, 0, 1, 2, 0, 1, 2, 0, 1][: len(table1)]
        with force_backend(backend):
            release = released_from_classes(table1, labels, class_rows)
        rows, codes = release._local
        assert len(rows) == 2 and rows[0] is wide and rows[1] is equal
        assert list(codes) == [1 if label == 0 else 0 for label in labels]
        # Classes group by equality, as for every local release.
        assert release.k() == len(table1)

    def test_matches_the_row_map_adapter(self, table1):
        maps = [{"Zip Code": z, "Age": a, "Marital Status": "*"}
                for z, a in (("1****", 50), ("2****", 40))]
        qi_cells = [maps[row % 2] for row in range(len(table1))]
        adapted = released_with_local_cells(table1, qi_cells)
        direct = released_from_classes(
            table1,
            [row % 2 for row in range(len(table1))],
            [tuple(row_map[name] for name in table1.schema.quasi_identifier_names)
             for row_map in maps],
        )
        assert adapted._local == direct._local

    def test_length_and_width_checked(self, table1):
        with pytest.raises(AnonymizationError, match="rows"):
            released_from_classes(table1, [0], [("1****", 50, "*")])
        with pytest.raises(AnonymizationError, match="class 0 releases 2 cells"):
            released_from_classes(table1, [0] * len(table1), [("1****", 50)])
