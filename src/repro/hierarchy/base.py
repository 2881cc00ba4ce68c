"""Generalization hierarchy protocol.

A hierarchy describes how a quasi-identifier attribute is generalized in a
full-domain recoding.  Level 0 is the identity (raw values); the highest level
collapses the whole domain into the suppression token ``"*"`` — suppression is
modeled as the special case of maximal generalization, exactly as in Section 3
of the paper ("suppression of tuples can be represented as a special case of
generalization").
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Hashable

#: Token denoting a fully suppressed value.
SUPPRESSED = "*"


class HierarchyError(ValueError):
    """Raised for invalid hierarchy definitions or out-of-domain values."""


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open numeric interval ``(low, high]``.

    Generalized numeric values are represented with these, matching the
    paper's notation (e.g. age ``(25,35]`` in Table 2).
    """

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.high <= self.low:
            raise HierarchyError(f"empty interval ({self.low}, {self.high}]")

    def __contains__(self, value: object) -> bool:
        if not isinstance(value, (int, float)):
            return False
        return self.low < value <= self.high

    @property
    def width(self) -> float:
        """Length of the interval."""
        return self.high - self.low

    def __str__(self) -> str:
        def fmt(x: float) -> str:
            return str(int(x)) if float(x).is_integer() else str(x)

        return f"({fmt(self.low)},{fmt(self.high)}]"


class Hierarchy(abc.ABC):
    """Value generalization hierarchy for one attribute."""

    def __init__(self, name: str):
        self.name = name

    @property
    @abc.abstractmethod
    def height(self) -> int:
        """Number of generalization levels above the raw values.

        Valid levels are ``0 .. height`` inclusive; ``generalize(v, height)``
        always returns :data:`SUPPRESSED`.
        """

    @abc.abstractmethod
    def generalize(self, value: Any, level: int) -> Hashable:
        """The generalization of ``value`` at ``level``.

        ``level == 0`` returns the value itself; ``level == height`` returns
        :data:`SUPPRESSED`.
        """

    @abc.abstractmethod
    def loss(self, value: Any, level: int) -> float:
        """Normalized information loss in ``[0, 1]`` for generalizing
        ``value`` to ``level`` (Iyengar's general loss metric contribution:
        0 for raw values, 1 for full suppression)."""

    def released_loss(self, cell: Any) -> float:
        """Normalized loss of an *already generalized* cell.

        Used by utility metrics on local recodings (e.g. Mondrian output),
        where no level vector is available.  Subclasses extend this for
        their own generalized token types; the base handles the two
        universal cases: the suppression token (loss 1) and raw leaf values
        (loss 0 when recognizable via ``generalize(cell, 0)``).
        """
        if cell == SUPPRESSED:
            return 1.0
        try:
            if self.generalize(cell, 0) == cell:
                return 0.0
        except HierarchyError:
            pass
        # Late import: repro.lint's package init imports this module.
        from ..lint.redact import redact_value

        raise HierarchyError(
            f"hierarchy {self.name!r} cannot score released cell "
            f"{redact_value(cell, label='cell')}"
        )

    def check_level(self, level: int) -> None:
        """Raise unless ``0 <= level <= height``."""
        if not 0 <= level <= self.height:
            raise HierarchyError(
                f"level {level} out of range 0..{self.height} for hierarchy {self.name!r}"
            )

    def generalizations(self, value: Any) -> list[Hashable]:
        """All generalizations of ``value``, from level 0 up to the top."""
        return [self.generalize(value, level) for level in range(self.height + 1)]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, height={self.height})"
