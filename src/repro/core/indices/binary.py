"""Binary quality indices (Definition 3 with m = 2).

These compare individual components of two property vectors induced by two
different anonymizations of the same data set, which is precisely what unary
indices cannot do (Section 3):

* :func:`binary_count` — ``P_binary(s,t) = |{s_i > t_i}|`` (Section 3);
* :func:`coverage` — ``P_cov`` of Section 5.2 (ties count for both sides);
* :func:`spread` — ``P_spr`` of Section 5.3;
* :func:`hypervolume` — ``P_hv`` of Section 5.4, plus a log-space variant
  that stays finite for large N.

All indices operate on *oriented* values (higher is better), so they apply
unchanged to loss-like vectors.
"""

from __future__ import annotations

import math

from ..vector import PropertyVector, PropertyVectorError, _isclose, check_comparable


def binary_count(first: PropertyVector, second: PropertyVector) -> int:
    """``P_binary``: number of tuples where ``first`` is strictly better.

    For the paper's T3a/T3b class-size vectors, ``P_binary(s, t) = 0`` and
    ``P_binary(t, s) = 7``.
    """
    check_comparable(first, second)
    return sum(1 for a, b in zip(first.oriented, second.oriented) if a > b)


def coverage(
    first: PropertyVector, second: PropertyVector, strict: bool = False
) -> float:
    """``P_cov``: fraction of tuples where ``first`` is at least as good.

    The paper counts ties for both vectors (``d_i^1 >= d_i^2``); pass
    ``strict=True`` for the tie-free ablation variant (``>`` only).
    """
    if strict:
        wins = binary_count(first, second)
    else:
        wins = len(first) - binary_count(second, first)
    return wins / len(first)


def spread(first: PropertyVector, second: PropertyVector) -> float:
    """``P_spr``: total property-value margin on tuples where ``first`` wins.

    ``P_spr(D1, D2) = Σ max(d_i^1 - d_i^2, 0)``; equals 0 iff ``second``
    weakly dominates ``first``.
    """
    check_comparable(first, second)
    pairs = zip(first.oriented, second.oriented)
    return math.fsum(a - b for a, b in pairs if a > b)


def epsilon_indicator(first: PropertyVector, second: PropertyVector) -> float:
    """The additive ε-indicator of Zitzler et al. [23] (the paper's cited
    foundation for quality indicators), adapted to property vectors.

    ``I_ε(D1, D2) = max_i (d_i^2 − d_i^1)`` on oriented values: the
    smallest uniform boost every tuple of ``D1`` would need to weakly
    dominate ``D2``.  Non-positive iff ``D1 ⪰ D2`` already; the magnitude
    quantifies *how far* from dominance the vectors are — a graded answer
    to the strict yes/no of Table 4.
    """
    check_comparable(first, second)
    return max(b - a for a, b in zip(first.oriented, second.oriented))


def _shifted(vector: PropertyVector, reference: float) -> list[float]:
    oriented = vector.oriented
    if min(oriented) < reference:
        raise PropertyVectorError(
            f"hypervolume requires oriented values >= reference ({reference}); "
            f"lowest seen was {min(oriented)}"
        )
    return [v - reference for v in oriented]

def log_dominated_hypervolume(
    vector: PropertyVector, reference: float = 0.0
) -> float:
    """Natural log of the hypervolume weakly dominated by ``vector``.

    The dominated region (the paper's ``Ψ``) has volume ``Π (d_i - ref)``;
    the log form stays finite for large N.  Returns ``-inf`` when any
    component sits at the reference (degenerate, zero-volume region).
    """
    values = _shifted(vector, reference)
    if 0 in values:
        return float("-inf")
    return math.fsum(map(math.log, values))


def hypervolume(
    first: PropertyVector, second: PropertyVector, reference: float = 0.0
) -> float:
    """``P_hv``: volume on which ``first`` is *solely* weakly dominant.

    ``P_hv(D1, D2) = Π d_i^1 - Π min(d_i^1, d_i^2)`` (region A of the
    paper's Figure 4, with ``reference`` as the origin).  The value can
    overflow to ``inf`` for long vectors of large measures; use
    :func:`compare_hypervolume` for overflow-safe comparisons.
    """
    check_comparable(first, second)
    own = _shifted(first, reference)
    shared = [min(a, b) for a, b in zip(own, _shifted(second, reference))]
    # Multiplying in sorted order keeps the rounding independent of row order.
    return math.prod(sorted(own)) - math.prod(sorted(shared))


def compare_hypervolume(
    first: PropertyVector, second: PropertyVector, reference: float = 0.0
) -> int:
    """Sign of ``P_hv(D1,D2) - P_hv(D2,D1)`` computed in log space.

    Because both directed indices subtract the *same* commonly dominated
    volume ``Π min(d1,d2)``, their order reduces to comparing the two total
    dominated volumes — done here on log sums so N in the tens of thousands
    cannot overflow.  Returns 1, -1 or 0.
    """
    check_comparable(first, second)
    log_first = log_dominated_hypervolume(first, reference)
    log_second = log_dominated_hypervolume(second, reference)
    if _isclose(log_first, log_second, rtol=1e-12, atol=1e-12):
        return 0
    return 1 if log_first > log_second else -1
