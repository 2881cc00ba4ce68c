"""Tests for unary quality indices (Sections 3 and 5.1 of the paper)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.indices.unary import (
    MaximumIndex,
    MeanIndex,
    MinimumIndex,
    QuantileIndex,
    RankIndex,
)
from repro.core.vector import PropertyVector, PropertyVectorError

finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)
vec = st.lists(finite, min_size=2, max_size=20)


class TestMinimumIndex:
    def test_k_anonymity_of_t3a(self):
        # Paper Section 3: P_k-anon(s) = 3 for T3a.
        s = PropertyVector((3, 3, 3, 3, 4, 4, 4, 3, 3, 4))
        assert MinimumIndex()(s) == 3

    def test_l_diversity_of_t3a(self):
        # Paper Section 3: l = 1 on the sensitive count vector.
        counts = PropertyVector((2, 2, 1, 2, 2, 1, 2, 1, 2, 1))
        assert MinimumIndex()(counts) == 1

    def test_lower_is_better_orientation(self):
        losses = PropertyVector([0.5, 0.2], higher_is_better=False)
        # Oriented minimum is the worst (largest) loss, negated.
        assert MinimumIndex()(losses) == -0.5

    def test_prefers(self):
        index = MinimumIndex()
        assert index.prefers(PropertyVector([4, 4]), PropertyVector([3, 9]))
        assert not index.prefers(PropertyVector([3, 9]), PropertyVector([4, 4]))


class TestMeanIndex:
    def test_s_avg_of_t3a(self):
        # Paper Section 3: P_s-avg = 3.4 for T3a.
        s = PropertyVector((3, 3, 3, 3, 4, 4, 4, 3, 3, 4))
        assert MeanIndex()(s) == pytest.approx(3.4)


class TestMaximumAndQuantile:
    def test_maximum(self):
        assert MaximumIndex()(PropertyVector([1, 9, 3])) == 9

    def test_median(self):
        assert QuantileIndex(0.5)(PropertyVector([1, 2, 9])) == 2

    def test_invalid_quantile(self):
        with pytest.raises(PropertyVectorError):
            QuantileIndex(1.5)


class TestRankIndex:
    def test_distance_to_scalar_ideal(self):
        index = RankIndex(ideal=5.0)
        assert index(PropertyVector([5, 5, 5])) == 0.0
        assert index(PropertyVector([5, 5, 1])) == 4.0

    def test_distance_to_vector_ideal(self):
        ideal = PropertyVector([10, 10])
        index = RankIndex(ideal=ideal)
        assert index(PropertyVector([10, 7])) == 3.0

    def test_l1_norm(self):
        index = RankIndex(ideal=0.0, order=1)
        assert index(PropertyVector([3, 4])) == 7.0

    def test_prefers_lower_rank(self):
        index = RankIndex(ideal=10.0)
        near = PropertyVector([9, 9])
        far = PropertyVector([5, 5])
        assert index.prefers(near, far)
        assert not index.prefers(far, near)

    def test_epsilon_equivalence(self):
        # Paper Section 5.1: vectors within epsilon rank are equally good.
        index = RankIndex(ideal=10.0, epsilon=1.0)
        a = PropertyVector([9, 9])
        b = PropertyVector([9, 8.5])
        assert index.equivalent(a, b)
        assert not index.prefers(a, b)
        assert not index.prefers(b, a)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(PropertyVectorError):
            RankIndex(ideal=0.0, epsilon=-1)

    def test_max_norm(self):
        index = RankIndex(ideal=0.0, order=math.inf)
        assert index(PropertyVector([3, -4])) == 4.0

    @pytest.mark.parametrize("order", [3, 0, -1, 0.5, -math.inf])
    def test_unsupported_order_rejected_at_construction(self, order):
        with pytest.raises(PropertyVectorError, match="norm order"):
            RankIndex(5.0, order=order)

    def test_lower_is_better_vector(self):
        # For a loss vector, the ideal scalar refers to the raw scale.
        index = RankIndex(ideal=0.0)
        losses = PropertyVector([0.0, 0.0], higher_is_better=False)
        assert index(losses) == 0.0

    @given(vec)
    def test_rank_zero_iff_at_ideal(self, values):
        ideal = PropertyVector(values)
        index = RankIndex(ideal=ideal)
        assert index(PropertyVector(values)) == pytest.approx(0.0, abs=1e-9)

    @given(vec, st.floats(min_value=0.1, max_value=10, allow_nan=False))
    def test_moving_away_increases_rank(self, values, delta):
        ideal = PropertyVector([max(values) + 1] * len(values))
        index = RankIndex(ideal=ideal)
        closer = PropertyVector(values)
        farther = PropertyVector([v - delta for v in values])
        assert index(farther) > index(closer)

    def test_equi_ranked_incomparable_vectors(self):
        # Two points on the same arc around D_max (Figure 2).
        index = RankIndex(ideal=PropertyVector([10, 10]))
        a = PropertyVector([10, 6])
        b = PropertyVector([6, 10])
        assert index(a) == index(b)
        assert not index.prefers(a, b)
