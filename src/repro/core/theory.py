"""Executable companions to the paper's impossibility results.

Theorem 1: for property vectors on a data set of size N, no family of fewer
than N unary quality indices can satisfy

    ∀i  P_i(D1) ≥ P_i(D2)  ⟺  D1 ⪰ D2.

Corollary 2 lifts the bound to rN indices for r-property comparisons.  The
theorem is about *all* families, so it cannot be checked exhaustively — but
it has two executable faces, both provided here:

* :func:`projection_indices` constructs the family of exactly N coordinate
  projections, which *does* characterize dominance — the bound is tight;
* :func:`find_dominance_counterexample` searches for a witness pair that
  breaks the equivalence for any concrete candidate family with n < N
  (Theorem 1 guarantees one exists; the search is deterministic given a
  seed and in practice finds one quickly for the aggregate families —
  min/mean/max/quantiles — used in existing comparative studies).
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from .comparators import weakly_dominates
from .vector import PropertyVector

UnaryIndexFn = Callable[[PropertyVector], float]


def projection_indices(size: int) -> list[UnaryIndexFn]:
    """The N coordinate projections ``P_i(D) = d_i``.

    With exactly ``size`` indices the equivalence of Theorem 1 holds
    trivially, demonstrating the lower bound is attained.
    """
    if size < 1:
        raise ValueError(f"size must be positive, got {size}")

    def make(position: int) -> UnaryIndexFn:
        def project(vector: PropertyVector) -> float:
            value = vector[position]
            return value if vector.higher_is_better else -value

        project.__name__ = f"projection_{position}"
        return project

    return [make(i) for i in range(size)]


def indices_claim_dominance(
    indices: Sequence[UnaryIndexFn],
    first: PropertyVector,
    second: PropertyVector,
) -> bool:
    """Whether the family's left-hand side holds: ∀i P_i(D1) ≥ P_i(D2)."""
    return all(p(first) >= p(second) for p in indices)


def equivalence_holds(
    indices: Sequence[UnaryIndexFn],
    first: PropertyVector,
    second: PropertyVector,
) -> bool:
    """Whether the Theorem 1 equivalence holds for this specific pair, in
    both directions of the pair ordering."""
    for a, b in ((first, second), (second, first)):
        if indices_claim_dominance(indices, a, b) != weakly_dominates(a, b):
            return False
    return True


def find_dominance_counterexample(
    indices: Sequence[UnaryIndexFn],
    size: int,
    trials: int = 2000,
    seed: int = 0,
    low: float = 0.0,
    high: float = 10.0,
) -> tuple[PropertyVector, PropertyVector] | None:
    """Search for a pair of vectors violating the Theorem 1 equivalence.

    Draws ``trials`` random pairs in ``[low, high]^size`` (plus a battery of
    structured antisymmetric pairs like the theorem's ``(a,..,a,c)`` /
    ``(b,..,b,c)`` constructions) and returns the first witness pair, or
    ``None`` if the family survived — which Theorem 1 says cannot happen
    for ``len(indices) < size`` unless the search is unlucky; raise
    ``trials`` in that case.
    """
    if size < 2:
        raise ValueError("counterexamples require vectors of size >= 2")
    rng = random.Random(seed)

    def candidate_pairs():
        # Structured pairs first: swapped coordinates are mutually
        # non-dominated, the shape used in the theorem's base case.
        step = (high - (low + 1)) / (size - 1)
        base = [(low + 1) + position * step for position in range(size)]
        base[-1] = float(high)
        swapped = list(base)
        swapped[0], swapped[-1] = swapped[-1], swapped[0]
        yield base, swapped
        for _ in range(trials):
            a = [rng.uniform(low, high) for _ in range(size)]
            b = [rng.uniform(low, high) for _ in range(size)]
            yield a, b
            # Mixed pair: agree on a random prefix, disagree after — probes
            # ties, which aggregate indices are particularly blind to.
            cut = rng.randrange(1, size)
            mixed = a[:cut] + b[cut:]
            yield a, mixed

    for left, right in candidate_pairs():
        first = PropertyVector(left, "candidate-1")
        second = PropertyVector(right, "candidate-2")
        if not equivalence_holds(indices, first, second):
            return first, second
    return None


def minimum_indices_required(r: int, size: int) -> int:
    """The paper's lower bound: N for one property (Theorem 1), rN for
    r-property comparisons (Corollary 2)."""
    if r < 1 or size < 1:
        raise ValueError("r and size must be positive")
    return r * size
