"""Hypothesis property tests for the Section-5 comparator family.

Algebraic contracts every ▶-better comparator must satisfy on random
property vectors:

* **reflexive equivalence** — ``relation(v, v) is EQUIVALENT`` (a release
  can never beat itself);
* **antisymmetry** — ``relation(a, b) == relation(b, a).flipped()`` (both
  operands agree on who won);
* **dominance consistency** (Table 4) — when ``a`` strictly dominates
  ``b`` in every tuple by a material margin, every comparator must call
  ``a`` BETTER; under mere weak dominance no comparator may call ``a``
  WORSE.

The same contracts are checked for the set-level P_WTD / P_LEX / P_GOAL
comparators of Sections 5.5–5.7 on paired Υ sets.

Margins are kept well above the ``isclose`` tolerances the spread /
weighted / goal comparators use for their equivalence bands, so "material
dominance" can never land inside a tie band.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.comparators import (  # noqa: E402
    CoverageBetter,
    HypervolumeBetter,
    MinBetter,
    RankBetter,
    Relation,
    SpreadBetter,
    dominance_relation,
    strongly_dominates,
    weakly_dominates,
)
from repro.core.multicomparators import (  # noqa: E402
    GoalBetter,
    LexicographicBetter,
    WeightedBetter,
)
from repro.core.vector import PropertyVector  # noqa: E402

#: Value band for random property vectors.  Strictly positive keeps the
#: hypervolume reference (0.0) valid; the [1, 50] band plus >= 0.5 boosts
#: keeps every "material dominance" case far outside isclose tolerance.
_VALUE_BAND = (1.0, 50.0)
_BOOST_BAND = (0.5, 10.0)
#: The rank comparator's ideal: the band's upper bound weakly dominates
#: every generated vector, so dominance shrinks the distance to it.
_IDEAL = _VALUE_BAND[1] + max(_BOOST_BAND)

values = st.floats(
    min_value=_VALUE_BAND[0],
    max_value=_VALUE_BAND[1],
    allow_nan=False,
    allow_infinity=False,
)
boosts = st.floats(
    min_value=_BOOST_BAND[0],
    max_value=_BOOST_BAND[1],
    allow_nan=False,
    allow_infinity=False,
)


@st.composite
def vector_pairs(draw):
    """Two independent random property vectors of equal length."""
    size = draw(st.integers(min_value=2, max_value=12))
    first = draw(st.lists(values, min_size=size, max_size=size))
    second = draw(st.lists(values, min_size=size, max_size=size))
    return PropertyVector(first), PropertyVector(second)


@st.composite
def dominated_pairs(draw):
    """A pair where the first strictly dominates the second everywhere."""
    size = draw(st.integers(min_value=2, max_value=12))
    base = draw(st.lists(values, min_size=size, max_size=size))
    margin = draw(st.lists(boosts, min_size=size, max_size=size))
    boosted = [b + m for b, m in zip(base, margin)]
    return PropertyVector(boosted), PropertyVector(base)


def comparators():
    return [
        MinBetter(),
        RankBetter(_IDEAL),
        CoverageBetter(),
        CoverageBetter(strict=True),
        SpreadBetter(),
        HypervolumeBetter(reference=0.0),
    ]


def set_comparators():
    return [
        WeightedBetter([0.6, 0.4]),
        LexicographicBetter(),
        GoalBetter([1.0, 1.0]),
    ]


# -- single-vector comparators -----------------------------------------------


@settings(max_examples=100, deadline=None)
@given(vector_pairs())
def test_reflexive_equivalence(pair):
    first, _ = pair
    for comparator in comparators():
        assert comparator.relation(first, first) is Relation.EQUIVALENT, (
            f"{comparator.name} does not treat a vector as equivalent to itself"
        )


@settings(max_examples=100, deadline=None)
@given(vector_pairs())
def test_antisymmetry(pair):
    first, second = pair
    for comparator in comparators():
        forward = comparator.relation(first, second)
        backward = comparator.relation(second, first)
        assert forward is backward.flipped(), (
            f"{comparator.name}: {forward} forward but {backward} backward"
        )


@settings(max_examples=100, deadline=None)
@given(dominated_pairs())
def test_material_dominance_wins(pair):
    """Strict everywhere-dominance by >= 0.5 must be BETTER for every
    comparator — a ▶-better relation disagreeing with strong dominance
    would invert the paper's Table 4 hierarchy."""
    first, second = pair
    assert strongly_dominates(first, second)
    assert dominance_relation(first, second) is Relation.BETTER
    for comparator in comparators():
        assert comparator.relation(first, second) is Relation.BETTER, (
            f"{comparator.name} does not honor material strong dominance"
        )


@settings(max_examples=100, deadline=None)
@given(vector_pairs())
def test_weak_dominance_never_loses(pair):
    """A weakly dominating vector may tie, but must never be WORSE."""
    first, second = pair
    merged = PropertyVector(
        [max(a, b) for a, b in zip(first.oriented, second.oriented)]
    )
    assert weakly_dominates(merged, second)
    for comparator in comparators():
        assert comparator.relation(merged, second) is not Relation.WORSE, (
            f"{comparator.name} ranks a weakly dominating vector as worse"
        )


@settings(max_examples=100, deadline=None)
@given(vector_pairs())
def test_strict_dominance_relation_is_antisymmetric(pair):
    first, second = pair
    forward = dominance_relation(first, second)
    backward = dominance_relation(second, first)
    assert forward is backward.flipped()
    assert dominance_relation(first, first) is Relation.EQUIVALENT


# -- set-level comparators (Sections 5.5-5.7) --------------------------------


@st.composite
def dominated_set_pairs(draw):
    """Paired Υ sets of two properties; the first dominates per property."""
    size = draw(st.integers(min_value=2, max_value=10))
    sets = []
    for _ in range(2):
        base = draw(st.lists(values, min_size=size, max_size=size))
        margin = draw(st.lists(boosts, min_size=size, max_size=size))
        boosted = [b + m for b, m in zip(base, margin)]
        sets.append((PropertyVector(boosted), PropertyVector(base)))
    first = [pair[0] for pair in sets]
    second = [pair[1] for pair in sets]
    return first, second


@settings(max_examples=100, deadline=None)
@given(dominated_set_pairs())
def test_set_comparators_reflexive_and_antisymmetric(pair):
    first, second = pair
    for comparator in set_comparators():
        assert comparator.relation(first, first) is Relation.EQUIVALENT
        assert comparator.relation(second, second) is Relation.EQUIVALENT
        forward = comparator.relation(first, second)
        backward = comparator.relation(second, first)
        assert forward is backward.flipped(), (
            f"{comparator.name}: {forward} forward but {backward} backward"
        )


@settings(max_examples=100, deadline=None)
@given(dominated_set_pairs())
def test_set_comparators_honor_dominance(pair):
    """Υ1 strictly dominating Υ2 on every property must win under P_WTD,
    P_LEX and P_GOAL alike (Table 4 consistency, lifted to sets)."""
    first, second = pair
    for comparator in set_comparators():
        assert comparator.relation(first, second) is Relation.BETTER, (
            f"{comparator.name} does not honor per-property strong dominance"
        )
