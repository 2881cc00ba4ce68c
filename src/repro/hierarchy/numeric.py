"""Interval hierarchies for numeric attributes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Sequence

from ..lint.redact import redact_value
from .base import SUPPRESSED, Hierarchy, HierarchyError, Interval


@dataclass(frozen=True, order=True)
class Span:
    """A closed numeric range ``[low, high]`` released by local recoders.

    Mondrian-style partitioning summarizes a partition's attribute values by
    their closed min-max range, which unlike :class:`Interval` may be
    degenerate (``low == high`` is allowed and means a single value).
    """

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise HierarchyError(f"invalid span [{self.low}, {self.high}]")

    @property
    def width(self) -> float:
        """Length of the range."""
        return self.high - self.low

    def __contains__(self, value: object) -> bool:
        if not isinstance(value, (int, float)):
            return False
        return self.low <= value <= self.high

    def __str__(self) -> str:
        def fmt(x: float) -> str:
            return str(int(x)) if float(x).is_integer() else str(x)

        return f"[{fmt(self.low)}-{fmt(self.high)}]"


@dataclass(frozen=True)
class Banding:
    """One interval level: fixed-width bands aligned to an anchor.

    A value ``v`` generalizes to the half-open band ``(low, low + width]``
    where ``low ≡ anchor (mod width)`` and ``low < v <= low + width``.  The
    paper's Table 2 age bands ``(25,35]`` come from width 10 anchored at 5;
    Table 3's ``(20,40]`` from width 20 anchored at 0.
    """

    width: float
    anchor: float = 0.0

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise HierarchyError(f"band width must be positive, got {self.width}")

    def band(self, value: float) -> Interval:
        """The half-open band containing ``value``."""
        offset = (value - self.anchor) % self.width
        low = value - offset if offset else value - self.width
        return Interval(low, low + self.width)


class IntervalHierarchy(Hierarchy):
    """Numeric hierarchy with progressively wider bands per level.

    Parameters
    ----------
    name:
        Attribute name.
    bandings:
        One :class:`Banding` per level ``1 .. height-1``, in increasing order
        of width.  Level 0 is the raw value, the top level is suppression.
    bounds:
        Inclusive ``(low, high)`` bounds of the attribute domain, used to
        normalize the loss metric.  Values outside the bounds are rejected.
    """

    def __init__(
        self,
        name: str,
        bandings: Sequence[Banding],
        bounds: tuple[float, float],
    ):
        super().__init__(name)
        low, high = bounds
        if high <= low:
            raise HierarchyError(f"invalid bounds ({low}, {high}) for {name!r}")
        widths = [banding.width for banding in bandings]
        if widths != sorted(widths):
            raise HierarchyError(
                f"bandings for {name!r} must be ordered by non-decreasing width"
            )
        self._bandings = tuple(bandings)
        self._bounds = (float(low), float(high))

    @property
    def height(self) -> int:
        """Number of banding levels plus the suppression top."""
        return len(self._bandings) + 1

    @property
    def bounds(self) -> tuple[float, float]:
        """Inclusive domain bounds used for loss normalization."""
        return self._bounds

    def _check_value(self, value: Any) -> float:
        if not isinstance(value, (int, float)):
            raise HierarchyError(
                f"hierarchy {self.name!r} expects numeric values, got "
                f"{redact_value(value, label='cell')}"
            )
        low, high = self._bounds
        if not low <= value <= high:
            raise HierarchyError(
                f"value {redact_value(value, label='cell')} outside domain "
                f"[{low}, {high}] of {self.name!r}"
            )
        return float(value)

    def generalize(self, value: Any, level: int) -> Hashable:
        self.check_level(level)
        numeric = self._check_value(value)
        if level == 0:
            return value
        if level == self.height:
            return SUPPRESSED
        return self._bandings[level - 1].band(numeric)

    def loss(self, value: Any, level: int) -> float:
        self.check_level(level)
        self._check_value(value)
        if level == 0:
            return 0.0
        if level == self.height:
            return 1.0
        low, high = self._bounds
        width = self._bandings[level - 1].width
        return min(1.0, width / (high - low))


    def released_loss(self, cell: Any) -> float:
        """Loss of a released cell: raw number, :class:`Interval`, or the
        suppression token."""
        if isinstance(cell, (Interval, Span)):
            low, high = self._bounds
            return min(1.0, cell.width / (high - low))
        if isinstance(cell, (int, float)):
            return 0.0
        return super().released_loss(cell)


def uniform_interval_hierarchy(
    name: str,
    bounds: tuple[float, float],
    base_width: float,
    levels: int,
    anchor: float = 0.0,
) -> IntervalHierarchy:
    """An interval hierarchy whose band width doubles at each level.

    Produces ``levels`` banding levels of widths ``base_width, 2*base_width,
    4*base_width, ...``, all sharing one anchor — the common shape used for
    age hierarchies in the k-anonymity literature.
    """
    bandings = [Banding(base_width * (2 ** i), anchor) for i in range(levels)]
    return IntervalHierarchy(name, bandings, bounds)
