"""Executable checks around Theorem 1 and its corollaries."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.indices.unary import (
    MaximumIndex,
    MeanIndex,
    MinimumIndex,
    QuantileIndex,
)
from repro.core.theory import (
    equivalence_holds,
    find_dominance_counterexample,
    indices_claim_dominance,
    minimum_indices_required,
    projection_indices,
)
from repro.core.vector import PropertyVector


class TestProjectionIndices:
    def test_exactly_n_indices_characterize_dominance(self):
        # The bound of Theorem 1 is tight: N projections suffice.
        indices = projection_indices(4)
        a = PropertyVector([4, 4, 4, 4])
        b = PropertyVector([3, 4, 2, 4])
        assert indices_claim_dominance(indices, a, b)
        assert equivalence_holds(indices, a, b)

    def test_no_counterexample_for_projections(self):
        indices = projection_indices(3)
        assert (
            find_dominance_counterexample(indices, size=3, trials=300, seed=1)
            is None
        )

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            projection_indices(0)

    @given(
        st.lists(
            st.floats(min_value=0, max_value=10, allow_nan=False),
            min_size=2,
            max_size=8,
        )
    )
    def test_projections_agree_with_dominance(self, values):
        from repro.core.comparators import weakly_dominates

        size = len(values)
        indices = projection_indices(size)
        a = PropertyVector(values)
        b = PropertyVector([v / 2 for v in values]) if max(values) > 0 else a
        assert indices_claim_dominance(indices, a, b) == weakly_dominates(a, b)


class TestTheorem1Witnesses:
    """Theorem 1 says every family with n < N fails; we exhibit witnesses
    for the aggregate families used in practice."""

    @staticmethod
    def aggregates():
        return [MinimumIndex(), MeanIndex()]

    def test_min_and_mean_fail_for_n3(self):
        witness = find_dominance_counterexample(self.aggregates(), size=3, seed=0)
        assert witness is not None
        first, second = witness
        assert not equivalence_holds(self.aggregates(), first, second)

    def test_min_alone_fails_for_n2(self):
        indices = [MinimumIndex()]
        witness = find_dominance_counterexample(indices, size=2, seed=0)
        assert witness is not None

    def test_structured_base_case(self):
        # The theorem's own base case: (a, b) vs (b, a) breaks any single
        # index family immediately.
        indices = [lambda v: math.fsum(v.oriented)]
        witness = find_dominance_counterexample(indices, size=2, trials=1, seed=0)
        assert witness is not None

    def test_min_mean_max_fail_for_n4(self):
        indices = self.aggregates() + [MaximumIndex()]
        witness = find_dominance_counterexample(indices, size=4, seed=3)
        assert witness is not None

    def test_quantile_family_fails(self):
        indices = [QuantileIndex(q) for q in (0.0, 0.5, 1.0)]
        witness = find_dominance_counterexample(indices, size=5, seed=5)
        assert witness is not None

    def test_size_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            find_dominance_counterexample(self.aggregates(), size=1)


class TestLowerBound:
    def test_theorem1_bound(self):
        assert minimum_indices_required(1, 10) == 10

    def test_corollary2_bound(self):
        assert minimum_indices_required(3, 10) == 30

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            minimum_indices_required(0, 10)
        with pytest.raises(ValueError):
            minimum_indices_required(1, 0)
