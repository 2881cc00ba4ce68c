"""Suffix-masking hierarchies for string codes (zip codes, phone prefixes)."""

from __future__ import annotations

from typing import Any, Hashable, Iterable

from ..lint.redact import redact_value
from .base import SUPPRESSED, Hierarchy, HierarchyError


class MaskingHierarchy(Hierarchy):
    """Generalizes fixed-width string codes by masking trailing characters.

    Level ``l`` replaces the last ``l`` characters with ``*`` — e.g. zip code
    ``13053`` at level 1 becomes ``1305*`` (Table 2) and at level 3 becomes
    ``13***`` (Table 3).  The top level is the suppression token.

    Parameters
    ----------
    name:
        Attribute name.
    code_length:
        Required length of every raw value.
    domain:
        Optional iterable of the raw values present in the releasable domain;
        when provided, :meth:`loss` uses exact mask coverage counts (how many
        domain values share the unmasked prefix).  Without it the loss falls
        back to the masked-character fraction.
    """

    def __init__(self, name: str, code_length: int, domain: Iterable[str] | None = None):
        super().__init__(name)
        if code_length < 1:
            raise HierarchyError(f"code length must be >= 1, got {code_length}")
        self._code_length = code_length
        self._domain: frozenset[str] | None = None
        self._prefix_counts: list[dict[str, int]] = []
        if domain is not None:
            values = sorted({str(v) for v in domain})
            for value in values:
                self._check_value(value)
            self._domain = frozenset(values)
            # prefix_counts[l-1][prefix] = #domain values sharing the first
            # (code_length - l) characters, for mask level l.
            for level in range(1, code_length + 1):
                counts: dict[str, int] = {}
                for value in values:
                    prefix = value[: code_length - level]
                    counts[prefix] = counts.get(prefix, 0) + 1
                self._prefix_counts.append(counts)

    @property
    def height(self) -> int:
        """Number of maskable characters (= generalization levels)."""
        # Masking all characters is already full suppression; one extra level
        # for the canonical "*" token keeps the protocol uniform.
        return self._code_length

    @property
    def domain(self) -> frozenset[str] | None:
        """The releasable raw codes, when provided."""
        return self._domain

    def _check_value(self, value: Any) -> str:
        text = str(value)
        if len(text) != self._code_length:
            raise HierarchyError(
                f"value {redact_value(value, label='cell')} must have length "
                f"{self._code_length} for hierarchy {self.name!r}"
            )
        return text

    def generalize(self, value: Any, level: int) -> Hashable:
        self.check_level(level)
        text = self._check_value(value)
        if self._domain is not None and text not in self._domain:
            raise HierarchyError(
                f"value {redact_value(value, label='cell')} not in domain of "
                f"hierarchy {self.name!r}"
            )
        if level == 0:
            return text
        if level == self._code_length:
            return SUPPRESSED
        return text[: self._code_length - level] + "*" * level

    def coverage(self, value: Any, level: int) -> int:
        """Number of domain values covered by the mask (domain required)."""
        if self._domain is None:
            raise HierarchyError(
                f"coverage for {self.name!r} requires a domain at construction"
            )
        self.check_level(level)
        text = self._check_value(value)
        if level == 0:
            return 1
        if level == self._code_length:
            return len(self._domain)
        return self._prefix_counts[level - 1][text[: self._code_length - level]]

    def released_loss(self, cell: Any) -> float:
        """Loss of a released cell: raw code, masked code, a frozenset of
        codes (set-valued local recoding), or suppression."""
        if isinstance(cell, frozenset):
            if self._domain is None:
                raise HierarchyError(
                    f"set-cell loss for {self.name!r} requires a domain"
                )
            if len(self._domain) <= 1:
                return 0.0
            return (len(cell) - 1) / (len(self._domain) - 1)
        if cell == "*" * self._code_length:
            return 1.0
        if isinstance(cell, str) and len(cell) == self._code_length:
            masked = len(cell) - len(cell.rstrip("*"))
            prefix = cell[: self._code_length - masked]
            if "*" not in prefix:
                if masked == 0 and self._domain is not None and cell not in self._domain:
                    return super().released_loss(cell)
                if masked == 0:
                    return 0.0
                if self._domain is not None and len(self._domain) > 1:
                    covered = self._prefix_counts[masked - 1].get(prefix, 1)
                    return (covered - 1) / (len(self._domain) - 1)
                return masked / self._code_length
        return super().released_loss(cell)

    def loss(self, value: Any, level: int) -> float:
        self.check_level(level)
        if level == 0:
            return 0.0
        if level == self._code_length:
            return 1.0
        if self._domain is not None and len(self._domain) > 1:
            covered = self.coverage(value, level)
            return (covered - 1) / (len(self._domain) - 1)
        return level / self._code_length
