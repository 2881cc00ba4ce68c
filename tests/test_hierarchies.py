"""Tests for generalization hierarchies (base, categorical, numeric, masking)."""

import pytest

from repro.hierarchy import (
    SUPPRESSED,
    Banding,
    HierarchyError,
    Interval,
    IntervalHierarchy,
    MaskingHierarchy,
    Span,
    TaxonomyHierarchy,
    uniform_interval_hierarchy,
)


class TestInterval:
    def test_membership_half_open(self):
        interval = Interval(25, 35)
        assert 26 in interval
        assert 35 in interval
        assert 25 not in interval
        assert "x" not in interval

    def test_empty_interval_rejected(self):
        with pytest.raises(HierarchyError):
            Interval(5, 5)

    def test_str_matches_paper_notation(self):
        assert str(Interval(25, 35)) == "(25,35]"

    def test_width(self):
        assert Interval(20, 40).width == 20

    def test_ordering(self):
        assert Interval(10, 20) < Interval(20, 30)


class TestSpan:
    def test_degenerate_allowed(self):
        assert Span(5, 5).width == 0

    def test_membership_closed(self):
        span = Span(10, 20)
        assert 10 in span and 20 in span
        assert 9 not in span

    def test_invalid_rejected(self):
        with pytest.raises(HierarchyError):
            Span(5, 4)

    def test_str(self):
        assert str(Span(10, 20)) == "[10-20]"


@pytest.fixture
def marital():
    return TaxonomyHierarchy(
        "marital",
        {
            "CF-Spouse": ("Married",),
            "Spouse Present": ("Married",),
            "Separated": ("Not Married",),
            "Never Married": ("Not Married",),
            "Divorced": ("Not Married",),
            "Spouse Absent": ("Not Married",),
        },
    )


class TestTaxonomyHierarchy:
    def test_height(self, marital):
        assert marital.height == 2

    def test_levels(self, marital):
        assert marital.generalize("Divorced", 0) == "Divorced"
        assert marital.generalize("Divorced", 1) == "Not Married"
        assert marital.generalize("Divorced", 2) == SUPPRESSED

    def test_out_of_domain_rejected(self, marital):
        with pytest.raises(HierarchyError, match="not in domain"):
            marital.generalize("Single", 1)

    def test_out_of_range_level(self, marital):
        with pytest.raises(HierarchyError, match="out of range"):
            marital.generalize("Divorced", 3)

    def test_coverage(self, marital):
        assert marital.coverage("Divorced", 0) == 1
        assert marital.coverage("Divorced", 1) == 4
        assert marital.coverage("CF-Spouse", 1) == 2
        assert marital.coverage("Divorced", 2) == 6

    def test_loss_normalized(self, marital):
        assert marital.loss("Divorced", 0) == 0.0
        assert marital.loss("Divorced", 1) == pytest.approx(3 / 5)
        assert marital.loss("Divorced", 2) == 1.0

    def test_ragged_paths_rejected(self):
        with pytest.raises(HierarchyError, match="ragged"):
            TaxonomyHierarchy("x", {"a": ("g",), "b": ()})

    def test_empty_rejected(self):
        with pytest.raises(HierarchyError, match="no leaves"):
            TaxonomyHierarchy("x", {})

    def test_flat_hierarchy(self):
        flat = TaxonomyHierarchy("sex", {"Male": (), "Female": ()})
        assert flat.height == 1
        assert flat.generalize("Male", 1) == SUPPRESSED

    def test_from_tree(self):
        tree = TaxonomyHierarchy.from_tree(
            "work",
            {"Any": [{"Gov": ["Federal", "State"]}, {"Private": ["Inc", "NotInc"]}]},
        )
        assert tree.height == 2
        assert tree.generalize("Federal", 1) == "Gov"
        assert tree.generalize("Inc", 1) == "Private"

    def test_from_tree_duplicate_leaf(self):
        with pytest.raises(HierarchyError, match="duplicate"):
            TaxonomyHierarchy.from_tree("x", {"Any": [{"A": ["v"]}, {"B": ["v"]}]})

    def test_from_tree_multiple_roots(self):
        with pytest.raises(HierarchyError, match="one root"):
            TaxonomyHierarchy.from_tree("x", {"A": ["v"], "B": ["w"]})

    def test_group_labelled_like_its_single_leaf_is_accepted(self):
        workclass = TaxonomyHierarchy(
            "workclass", {"Private": ("Private",), "Federal": ("Gov",)}
        )
        assert workclass.generalize("Private", 1) == "Private"
        assert workclass.level_of("Gov") == 1

    def test_group_labelled_like_one_of_several_leaves_is_rejected(self):
        with pytest.raises(HierarchyError, match="holds that leaf alone") as caught:
            TaxonomyHierarchy(
                "workclass",
                {"Private": ("Private",), "Contractor": ("Private",), "Federal": ("Gov",)},
            )
        assert "Private" not in str(caught.value)

    def test_token_errors_are_redacted(self, marital):
        for action in (marital.level_of, marital.parent, marital.children):
            with pytest.raises(HierarchyError) as caught:
                action("Widowed")
            assert "Widowed" not in str(caught.value)
        with pytest.raises(HierarchyError, match="top"):
            marital.parent(SUPPRESSED)
        with pytest.raises(HierarchyError, match="leaf") as caught:
            marital.children("Divorced")
        assert "Divorced" not in str(caught.value)

    def test_generalizations(self, marital):
        assert marital.generalizations("Divorced") == [
            "Divorced",
            "Not Married",
            SUPPRESSED,
        ]

    def test_released_loss_leaf(self, marital):
        assert marital.released_loss("Divorced") == 0.0

    def test_released_loss_internal(self, marital):
        assert marital.released_loss("Married") == pytest.approx(1 / 5)

    def test_released_loss_suppressed(self, marital):
        assert marital.released_loss(SUPPRESSED) == 1.0

    def test_released_loss_frozenset(self, marital):
        assert marital.released_loss(frozenset({"Divorced", "Separated"})) == (
            pytest.approx(1 / 5)
        )

    def test_released_loss_unknown(self, marital):
        with pytest.raises(HierarchyError):
            marital.released_loss("Widowed")

    def test_released_loss_set_with_unknown(self, marital):
        with pytest.raises(HierarchyError, match="non-domain"):
            marital.released_loss(frozenset({"Divorced", "Widowed"}))


class TestIntervalHierarchy:
    @pytest.fixture
    def age(self):
        return IntervalHierarchy(
            "age", [Banding(10, 5), Banding(20, 15)], bounds=(0, 120)
        )

    def test_height(self, age):
        assert age.height == 3

    def test_banding_anchors(self, age):
        assert age.generalize(28, 1) == Interval(25, 35)
        assert age.generalize(35, 1) == Interval(25, 35)
        assert age.generalize(36, 1) == Interval(35, 45)
        assert age.generalize(28, 2) == Interval(15, 35)

    def test_level0_identity(self, age):
        assert age.generalize(28, 0) == 28

    def test_top_suppressed(self, age):
        assert age.generalize(28, 3) == SUPPRESSED

    def test_out_of_bounds_rejected(self, age):
        with pytest.raises(HierarchyError, match="outside domain"):
            age.generalize(130, 1)

    def test_non_numeric_rejected(self, age):
        with pytest.raises(HierarchyError, match="numeric"):
            age.generalize("old", 1)

    def test_loss(self, age):
        assert age.loss(28, 0) == 0.0
        assert age.loss(28, 1) == pytest.approx(10 / 120)
        assert age.loss(28, 3) == 1.0

    def test_widths_must_be_ordered(self):
        with pytest.raises(HierarchyError, match="non-decreasing"):
            IntervalHierarchy("x", [Banding(20), Banding(10)], bounds=(0, 100))

    def test_invalid_bounds(self):
        with pytest.raises(HierarchyError, match="invalid bounds"):
            IntervalHierarchy("x", [Banding(10)], bounds=(10, 10))

    def test_zero_width_banding_rejected(self):
        with pytest.raises(HierarchyError, match="positive"):
            Banding(0)

    def test_released_loss_interval_and_span(self, age):
        assert age.released_loss(Interval(25, 35)) == pytest.approx(10 / 120)
        assert age.released_loss(Span(20, 50)) == pytest.approx(30 / 120)
        assert age.released_loss(28) == 0.0
        assert age.released_loss(SUPPRESSED) == 1.0

    def test_uniform_hierarchy_doubles(self):
        h = uniform_interval_hierarchy("age", (0, 80), base_width=5, levels=3)
        assert h.height == 4
        assert h.generalize(7, 1) == Interval(5, 10)
        assert h.generalize(7, 2) == Interval(0, 10)
        assert h.generalize(7, 3) == Interval(0, 20)


class TestMaskingHierarchy:
    @pytest.fixture
    def zips(self):
        return MaskingHierarchy(
            "zip", 5, domain={"13053", "13052", "13268", "13269", "13253", "13250"}
        )

    def test_masking_levels(self, zips):
        assert zips.generalize("13053", 0) == "13053"
        assert zips.generalize("13053", 1) == "1305*"
        assert zips.generalize("13053", 3) == "13***"
        assert zips.generalize("13053", 5) == SUPPRESSED

    def test_wrong_length_rejected(self, zips):
        with pytest.raises(HierarchyError, match="length"):
            zips.generalize("1305", 1)

    def test_out_of_domain_rejected(self, zips):
        with pytest.raises(HierarchyError, match="not in domain"):
            zips.generalize("99999", 1)

    def test_coverage(self, zips):
        assert zips.coverage("13053", 1) == 2  # 13053, 13052
        assert zips.coverage("13053", 3) == 6
        assert zips.coverage("13053", 0) == 1

    def test_coverage_requires_domain(self):
        free = MaskingHierarchy("zip", 5)
        with pytest.raises(HierarchyError, match="domain"):
            free.coverage("13053", 1)

    def test_loss_with_domain(self, zips):
        assert zips.loss("13053", 1) == pytest.approx(1 / 5)
        assert zips.loss("13053", 5) == 1.0

    def test_loss_without_domain_falls_back(self):
        free = MaskingHierarchy("zip", 5)
        assert free.loss("13053", 2) == pytest.approx(2 / 5)

    def test_released_loss_masked(self, zips):
        assert zips.released_loss("1305*") == pytest.approx(1 / 5)
        assert zips.released_loss("13053") == 0.0
        assert zips.released_loss("*****") == 1.0
        assert zips.released_loss(SUPPRESSED) == 1.0

    def test_released_loss_frozenset(self, zips):
        assert zips.released_loss(frozenset({"13053", "13052"})) == pytest.approx(1 / 5)

    def test_invalid_code_length(self):
        with pytest.raises(HierarchyError):
            MaskingHierarchy("zip", 0)
