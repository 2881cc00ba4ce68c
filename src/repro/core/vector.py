"""Property vectors (Definition 1 of the paper).

A property vector for a data set of size N is an N-dimensional real vector
whose i-th element measures some property (privacy, utility, ...) of the i-th
tuple of an anonymized data set.  Property vectors are the paper's antidote to
*anonymization bias*: unlike a scalar summary (the k of k-anonymity), they
retain the per-tuple distribution of the property.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from ..kernels.array import xp as np


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
        # Rejected before the backend array is built, so an ndarray of any
        # backend, or a nested sequence, fails the same way on both.
        shape = getattr(values, "shape", None)
        if shape is not None and len(shape) != 1:
            raise PropertyVectorError(f"property vector must be 1-D, got shape {shape}")
        source = values if isinstance(values, np.ndarray) else list(values)
        if shape is None and source and (
            isinstance(source[0], (list, tuple)) or getattr(source[0], "shape", ())
        ):
            raise PropertyVectorError("property vector must be 1-D, got nested input")
        # Always copy: the vector must not alias (or freeze) caller arrays.
        array = np.array(source, dtype=float, copy=True)
        if array.size == 0:
            raise PropertyVectorError("property vector must be non-empty")
        if not np.all(np.isfinite(array)):
            raise PropertyVectorError("property vector values must be finite")
        array.setflags(write=False)
        self._values = array
        self.name = name
        self.higher_is_better = higher_is_better

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return self._values.size

    def __iter__(self) -> Iterator[float]:
        return iter(self._values)

    def __getitem__(self, index: int) -> float:
        return float(self._values[index])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PropertyVector):
            return NotImplemented
        return (
            self.higher_is_better == other.higher_is_better
            and np.array_equal(self._values, other._values)
        )

    def __hash__(self) -> int:
        return hash((self.name, self.higher_is_better, self._values.tobytes()))

    def __repr__(self) -> str:
        preview = np.array2string(self._values, threshold=8, precision=4)
        direction = "↑" if self.higher_is_better else "↓"
        return f"PropertyVector({self.name!r}{direction}, {preview})"

    # -- value access ----------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """The raw measurements (read-only array)."""
        return self._values

    @property
    def oriented(self) -> np.ndarray:
        """Values transformed so that higher is always better.

        Lower-is-better vectors are negated; this is the canonical form all
        comparators and quality indices operate on.
        """
        return self._values if self.higher_is_better else -self._values

    def as_tuple(self) -> tuple[float, ...]:
        """The raw measurements as a plain tuple of floats."""
        return tuple(float(v) for v in self._values)

    # -- derivation -------------------------------------------------------------

    def renamed(self, name: str) -> "PropertyVector":
        """A copy carrying a different property name."""
        return PropertyVector(self._values, name, self.higher_is_better)

    def negated(self) -> "PropertyVector":
        """The same measurements with flipped orientation flag and sign,
        preserving comparison semantics."""
        return PropertyVector(-self._values, self.name, not self.higher_is_better)

    def normalized(self) -> "PropertyVector":
        """Min-max normalization of the *oriented* values to [0, 1].

        Section 5.5 advises normalizing index inputs before weighting;
        this provides the standard per-vector normalization (constant
        vectors map to all-zeros).  The result is higher-is-better.
        """
        oriented = self.oriented
        low = oriented.min()
        span = oriented.max() - low
        if span == 0:
            scaled = np.zeros_like(oriented)
        else:
            scaled = (oriented - low) / span
        return PropertyVector(scaled, f"{self.name}[normalized]", True)

    # -- summary statistics (aggregate views the paper warns about) --------------

    def min(self) -> float:
        """Smallest raw measurement."""
        return float(self._values.min())

    def max(self) -> float:
        """Largest raw measurement."""
        return float(self._values.max())

    def mean(self) -> float:
        """Mean raw measurement."""
        return float(self._values.mean())

    def quantile(self, q: float) -> float:
        """The q-quantile of the raw measurements."""
        return float(np.quantile(self._values, q))


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
