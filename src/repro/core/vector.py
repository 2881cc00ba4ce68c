"""Property vectors (Definition 1 of the paper).

A property vector for a data set of size N is an N-dimensional real vector
whose i-th element measures some property (privacy, utility, ...) of the i-th
tuple of an anonymized data set.  Property vectors are the paper's antidote to
*anonymization bias*: unlike a scalar summary (the k of k-anonymity), they
retain the per-tuple distribution of the property.

Every index, comparator and bias summary computes on these vectors in plain
Python: sums go through the correctly rounded :func:`math.fsum`, so a value
depends neither on the installed math library nor on the row order.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterable, Iterator, Sequence


class PropertyVectorError(ValueError):
    """Raised for invalid property vector constructions or combinations."""


class PropertyVector:
    """An N-dimensional vector of per-tuple property measurements.

    Parameters
    ----------
    values:
        One real measurement per tuple, in tuple (row) order.
    name:
        Name of the measured property (e.g. ``"equivalence-class-size"``).
    higher_is_better:
        Orientation of the measure.  The paper assumes "a higher value of a
        property measurement for a tuple is better" without loss of
        generality; quality indices consult this flag and work on the
        *oriented* values so that loss-like measures (lower is better) can be
        compared with the same machinery.
    """

    __slots__ = ("_values", "name", "higher_is_better")

    def __init__(
        self,
        values: Iterable[float],
        name: str = "property",
        higher_is_better: bool = True,
    ):
        shape = getattr(values, "shape", None)
        if shape is not None and len(shape) != 1:
            raise PropertyVectorError(f"property vector must be 1-D, got shape {shape}")
        source = list(values)
        if source and (
            isinstance(source[0], (list, tuple)) or getattr(source[0], "shape", ())
        ):
            raise PropertyVectorError("property vector must be 1-D, got nested input")
        data = array("d", source)
        if not data:
            raise PropertyVectorError("property vector must be non-empty")
        if not all(map(math.isfinite, data)):
            raise PropertyVectorError("property vector values must be finite")
        # ``+ 0.0`` folds -0.0 into 0.0, so equal vectors hash alike and no
        # minimum or order statistic depends on which signed zero came first.
        self._values = array("d", [v + 0.0 for v in data])
        self.name = name
        self.higher_is_better = higher_is_better

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[float]:
        return iter(self._values)

    def __getitem__(self, index: int) -> float:
        return self._values[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PropertyVector):
            return NotImplemented
        return (
            self.higher_is_better == other.higher_is_better
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return hash((self.name, self.higher_is_better, self._values.tobytes()))

    def __repr__(self) -> str:
        shown = [f"{v:.4g}" for v in self._values]
        if len(shown) > 8:
            shown[3:-3] = ["..."]
        preview = "[" + " ".join(shown) + "]"
        direction = "↑" if self.higher_is_better else "↓"
        return f"PropertyVector({self.name!r}{direction}, {preview})"

    # -- value access ----------------------------------------------------------

    @property
    def values(self) -> tuple[float, ...]:
        """The raw measurements, in row order."""
        return tuple(self._values)

    @property
    def oriented(self) -> tuple[float, ...]:
        """Values transformed so that higher is always better.

        Lower-is-better vectors are negated; this is the canonical form all
        comparators and quality indices operate on.
        """
        if self.higher_is_better:
            return tuple(self._values)
        return tuple(-v for v in self._values)

    def as_tuple(self) -> tuple[float, ...]:
        """The raw measurements as a plain tuple of floats."""
        return tuple(self._values)

    # -- derivation -------------------------------------------------------------

    def renamed(self, name: str) -> "PropertyVector":
        """A copy carrying a different property name."""
        return PropertyVector(self._values, name, self.higher_is_better)

    def negated(self) -> "PropertyVector":
        """The same measurements with flipped orientation flag and sign,
        preserving comparison semantics."""
        return PropertyVector(
            [-v for v in self._values], self.name, not self.higher_is_better
        )

    def normalized(self) -> "PropertyVector":
        """Min-max normalization of the *oriented* values to [0, 1].

        Section 5.5 advises normalizing index inputs before weighting;
        this provides the standard per-vector normalization (constant
        vectors map to all-zeros).  The result is higher-is-better.
        """
        oriented = self.oriented
        low = min(oriented)
        span = max(oriented) - low
        if span == 0:
            scaled = [0.0] * len(oriented)
        else:
            scaled = [(v - low) / span for v in oriented]
        return PropertyVector(scaled, f"{self.name}[normalized]", True)

    # -- summary statistics (aggregate views the paper warns about) --------------

    def min(self) -> float:
        """Smallest raw measurement."""
        return min(self._values)

    def max(self) -> float:
        """Largest raw measurement."""
        return max(self._values)

    def mean(self) -> float:
        """Mean raw measurement (correctly rounded sum over the length)."""
        return math.fsum(self._values) / len(self._values)

    def quantile(self, q: float) -> float:
        """The q-quantile of the raw measurements (numpy's linear method)."""
        return sorted_quantile(sorted(self._values), q)


def sorted_quantile(ordered: Sequence[float], q: float) -> float:
    """The q-quantile of ascending ``ordered``, by linear interpolation.

    Reproduces ``np.quantile(..., method="linear")`` bit for bit, including
    the lerp branch switch at ``t >= 0.5`` (numpy computes ``b - (b-a)*(1-t)``
    there to keep the interpolation monotone).
    """
    if not 0.0 <= q <= 1.0:
        raise PropertyVectorError(f"quantile must be in [0,1], got {q}")
    position = q * (len(ordered) - 1)
    below = math.floor(position)
    above = min(below + 1, len(ordered) - 1)
    t = position - below
    a, b = ordered[below], ordered[above]
    if t >= 0.5:
        return b - (b - a) * (1 - t)
    return a + (b - a) * t


def _isclose(a: float, b: float, rtol: float = 1e-05, atol: float = 1e-08) -> bool:
    """numpy's closeness test ``|a - b| <= atol + rtol * |b|`` on scalars.

    Asymmetric in ``b`` like ``numpy.isclose`` (``math.isclose`` is
    symmetric, so it would move verdicts); equal infinities are close.
    """
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= atol + rtol * abs(b)


def check_comparable(first: PropertyVector, second: PropertyVector) -> None:
    """Validate that two vectors can participate in one comparison.

    They must have equal length (comparisons apply anonymizations to the same
    data set — Section 3) and the same orientation.
    """
    if len(first) != len(second):
        raise PropertyVectorError(
            f"property vectors have different sizes ({len(first)} vs {len(second)})"
        )
    if first.higher_is_better != second.higher_is_better:
        raise PropertyVectorError(
            "property vectors have opposite orientations; negate one first"
        )


def check_all_comparable(vectors: Sequence[PropertyVector]) -> None:
    """Validate pairwise comparability of a family of vectors."""
    for vector in vectors[1:]:
        check_comparable(vectors[0], vector)
