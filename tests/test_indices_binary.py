"""Tests for binary quality indices (Sections 3, 5.2-5.4), including the
paper's exact worked examples and hypothesis invariants."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.comparators import strongly_dominates, weakly_dominates
from repro.core.indices.binary import (
    binary_count,
    compare_hypervolume,
    coverage,
    hypervolume,
    log_dominated_hypervolume,
    spread,
)
from repro.core.vector import PropertyVector, PropertyVectorError

positive = st.floats(min_value=0.01, max_value=100, allow_nan=False)


@st.composite
def paired_vectors(draw, min_value=0.01, max_value=100.0):
    size = draw(st.integers(min_value=1, max_value=15))
    element = st.floats(min_value=min_value, max_value=max_value, allow_nan=False)
    a = draw(st.lists(element, min_size=size, max_size=size))
    b = draw(st.lists(element, min_size=size, max_size=size))
    return PropertyVector(a), PropertyVector(b)


# Paper Section 3: T3a vs T3b class-size vectors.
S = PropertyVector((3, 3, 3, 3, 4, 4, 4, 3, 3, 4), "T3a")
T = PropertyVector((3, 7, 7, 3, 7, 7, 7, 3, 7, 7), "T3b")


class TestBinaryCount:
    def test_paper_section3_example(self):
        assert binary_count(S, T) == 0
        assert binary_count(T, S) == 7

    def test_lower_is_better(self):
        a = PropertyVector([0.1, 0.9], higher_is_better=False)
        b = PropertyVector([0.5, 0.5], higher_is_better=False)
        assert binary_count(a, b) == 1  # 0.1 is better than 0.5
        assert binary_count(b, a) == 1

    @given(paired_vectors())
    def test_counts_disjoint(self, pair):
        a, b = pair
        assert binary_count(a, b) + binary_count(b, a) <= len(a)


class TestCoverage:
    def test_paper_section52_values(self):
        assert coverage(S, T) == pytest.approx(0.3)
        assert coverage(T, S) == pytest.approx(1.0)

    def test_paper_section53_tie_example(self):
        d1 = PropertyVector((2, 2, 3, 4, 5))
        d2 = PropertyVector((3, 2, 4, 2, 3))
        assert coverage(d1, d2) == pytest.approx(3 / 5)
        assert coverage(d2, d1) == pytest.approx(3 / 5)

    def test_strict_variant_excludes_ties(self):
        d1 = PropertyVector((2, 2, 3, 4, 5))
        d2 = PropertyVector((3, 2, 4, 2, 3))
        assert coverage(d1, d2, strict=True) == pytest.approx(2 / 5)
        assert coverage(d2, d1, strict=True) == pytest.approx(2 / 5)

    def test_full_coverage_iff_strong_dominance(self):
        # Paper: P_cov(D1,D2)=1 and P_cov(D2,D1)=0 implies D1 strictly better.
        d1 = PropertyVector([5, 6])
        d2 = PropertyVector([4, 5])
        assert coverage(d1, d2) == 1.0
        assert coverage(d2, d1) == 0.0
        assert strongly_dominates(d1, d2)

    @given(paired_vectors())
    def test_coverage_bounds_and_completeness(self, pair):
        a, b = pair
        forward, backward = coverage(a, b), coverage(b, a)
        assert 0.0 <= forward <= 1.0
        # Ties count for both, so the two coverages cover everything.
        assert forward + backward >= 1.0 - 1e-12

    @given(paired_vectors())
    def test_weak_dominance_implies_full_coverage(self, pair):
        a, b = pair
        if weakly_dominates(a, b):
            assert coverage(a, b) == 1.0


class TestSpread:
    def test_paper_section53_example(self):
        d1 = PropertyVector((2, 2, 3, 4, 5))
        d2 = PropertyVector((3, 2, 4, 2, 3))
        assert spread(d1, d2) == pytest.approx(4.0)
        assert spread(d2, d1) == pytest.approx(2.0)

    def test_paper_2anon_vs_3anon_example(self):
        # Section 5.3: the 2-anonymous generalization wins on spread 8 vs 2.
        three = PropertyVector((3, 3, 3, 5, 5, 5, 5, 5, 3, 3, 3, 4, 4, 4, 4))
        two = PropertyVector((2, 2, 6, 6, 6, 6, 6, 6, 3, 3, 3, 4, 4, 4, 4))
        assert spread(three, two) == pytest.approx(2.0)
        assert spread(two, three) == pytest.approx(8.0)
        # And P_cov points the same way.
        assert coverage(two, three) > coverage(three, two)

    @given(paired_vectors())
    def test_spread_zero_iff_weakly_dominated(self, pair):
        a, b = pair
        # Paper: P_spr(D1, D2) = 0 iff D2 weakly dominates D1.
        assert (spread(a, b) == 0.0) == weakly_dominates(b, a)

    @given(paired_vectors())
    def test_spread_nonnegative(self, pair):
        a, b = pair
        assert spread(a, b) >= 0.0

    @given(paired_vectors())
    def test_spread_difference_is_mean_difference(self, pair):
        a, b = pair
        # spread(a,b) - spread(b,a) == sum(a) - sum(b) (telescoping max).
        assert spread(a, b) - spread(b, a) == pytest.approx(
            math.fsum(a.oriented) - math.fsum(b.oriented), rel=1e-9, abs=1e-6
        )


class TestHypervolume:
    def test_paper_section54_example(self):
        s = PropertyVector((3, 3, 3, 5, 5, 5, 5, 5))
        t = PropertyVector((4, 4, 4, 4, 4, 4, 4, 4))
        assert hypervolume(s, t) == pytest.approx(3**3 * 5**5 - 3**3 * 4**5)
        assert hypervolume(t, s) == pytest.approx(4**8 - 3**3 * 4**5)
        assert hypervolume(s, t) > hypervolume(t, s)
        assert compare_hypervolume(s, t) == 1
        assert compare_hypervolume(t, s) == -1

    def test_zero_iff_dominated(self):
        a = PropertyVector([2, 2])
        b = PropertyVector([3, 3])
        assert hypervolume(a, b) == 0.0
        assert hypervolume(b, a) == pytest.approx(9 - 4)

    def test_negative_values_rejected(self):
        with pytest.raises(PropertyVectorError, match="reference"):
            hypervolume(PropertyVector([-1, 2]), PropertyVector([1, 1]))

    def test_reference_shift(self):
        a = PropertyVector([3, 3])
        b = PropertyVector([2, 4])
        # With reference 2, a's volume is 1, b's is 0 (degenerate).
        assert hypervolume(a, b, reference=2.0) == pytest.approx(1.0)

    def test_log_form_matches_for_small_vectors(self):
        a = PropertyVector([3, 5, 7])
        assert log_dominated_hypervolume(a) == pytest.approx(math.log(105))

    def test_log_form_degenerate(self):
        assert log_dominated_hypervolume(
            PropertyVector([0.0, 3.0])
        ) == float("-inf")

    def test_log_comparison_safe_for_large_vectors(self):
        # 2000 tuples with sizes ~ 50: the raw product overflows, the log
        # comparison must still order correctly.
        big = PropertyVector([50.0] * 2000)
        slightly_smaller = PropertyVector([50.0] * 1999 + [49.0])
        assert compare_hypervolume(big, slightly_smaller) == 1
        assert compare_hypervolume(slightly_smaller, big) == -1
        assert compare_hypervolume(big, big) == 0

    @given(paired_vectors(min_value=0.5, max_value=10))
    def test_hypervolume_nonnegative(self, pair):
        a, b = pair
        assert hypervolume(a, b) >= -1e-9

    @given(paired_vectors(min_value=0.5, max_value=10))
    def test_log_comparison_matches_raw(self, pair):
        a, b = pair
        raw = hypervolume(a, b) - hypervolume(b, a)
        sign = compare_hypervolume(a, b)
        if abs(raw) > 1e-6:
            assert math.copysign(1, raw) == sign


class TestEpsilonIndicator:
    def test_nonpositive_iff_weak_dominance(self):
        from repro.core.indices.binary import epsilon_indicator

        assert epsilon_indicator(T, S) <= 0  # T3b dominates T3a
        assert epsilon_indicator(S, T) > 0

    def test_exact_shift(self):
        from repro.core.indices.binary import epsilon_indicator

        a = PropertyVector([3, 5])
        b = PropertyVector([4, 4])
        # a needs +1 on tuple 1 to dominate b.
        assert epsilon_indicator(a, b) == 1.0
        assert epsilon_indicator(b, a) == 1.0

    def test_self_is_zero(self):
        from repro.core.indices.binary import epsilon_indicator

        assert epsilon_indicator(S, S) == 0.0

    def test_orientation(self):
        from repro.core.indices.binary import epsilon_indicator

        low = PropertyVector([0.1, 0.1], higher_is_better=False)
        high = PropertyVector([0.9, 0.9], higher_is_better=False)
        assert epsilon_indicator(low, high) <= 0  # low loss dominates

    @given(paired_vectors())
    def test_dominance_characterization(self, pair):
        from repro.core.indices.binary import epsilon_indicator

        a, b = pair
        assert (epsilon_indicator(a, b) <= 0) == weakly_dominates(a, b)

    @given(paired_vectors())
    def test_triangle_inequality(self, pair):
        from repro.core.indices.binary import epsilon_indicator

        a, b = pair
        c = PropertyVector([1.0] * len(a))
        assert epsilon_indicator(a, b) <= (
            epsilon_indicator(a, c) + epsilon_indicator(c, b) + 1e-9
        )
