"""Per-individual comparison of anonymizations.

Section 2's user-level reading of Figure 1: "if user 8 is to choose
between the anonymizations T3b and T4, the choice would be the latter ...
however, if user 3 is in question then T3b is in fact better than T4."
This module computes exactly that: for each tuple, which candidate release
gives it the best property value, plus summary tallies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..core.vector import PropertyVector, check_all_comparable


@dataclass(frozen=True)
class IndividualPreferences:
    """Per-tuple winners among a family of property vectors."""

    #: candidate names, in presentation order.
    candidates: tuple[str, ...]
    #: per tuple, the names achieving that tuple's best value (ties share).
    winners: tuple[tuple[str, ...], ...]

    def __len__(self) -> int:
        return len(self.winners)

    def sole_win_counts(self) -> dict[str, int]:
        """Tuples for which each candidate is the *unique* best choice."""
        counts = {name: 0 for name in self.candidates}
        for winner_group in self.winners:
            if len(winner_group) == 1:
                counts[winner_group[0]] += 1
        return counts

    def win_counts(self) -> dict[str, int]:
        """Tuples for which each candidate is (possibly jointly) best."""
        counts = {name: 0 for name in self.candidates}
        for winner_group in self.winners:
            for name in winner_group:
                counts[name] += 1
        return counts

    def contested(self) -> int:
        """Tuples whose best release is not shared by all candidates —
        the individuals for whom the choice of anonymization matters."""
        return sum(
            1
            for winner_group in self.winners
            if len(winner_group) < len(self.candidates)
        )


def individual_preferences(
    vectors: Mapping[str, PropertyVector]
) -> IndividualPreferences:
    """For each tuple, the candidate(s) with the best oriented value."""
    if not vectors:
        raise ValueError("need at least one candidate")
    names = tuple(vectors)
    family = [vectors[name] for name in names]
    check_all_comparable(family)
    winners = []
    for column in zip(*(vector.oriented for vector in family)):
        best = max(column)
        winners.append(
            tuple(name for name, value in zip(names, column) if value == best)
        )
    return IndividualPreferences(candidates=names, winners=tuple(winners))


def preference_table(
    vectors: Mapping[str, PropertyVector],
    labels: Sequence[str] | None = None,
) -> str:
    """Plain-text per-tuple preference listing (Figure 1's narrative)."""
    preferences = individual_preferences(vectors)
    if labels is None:
        labels = [str(i + 1) for i in range(len(preferences))]
    if len(labels) != len(preferences):
        raise ValueError(
            f"expected {len(preferences)} labels, got {len(labels)}"
        )
    lines = ["tuple  best release(s)"]
    for label, winner_group in zip(labels, preferences.winners):
        lines.append(f"{label:>5}  {', '.join(winner_group)}")
    tallies = ", ".join(
        f"{name}: {count}" for name, count in preferences.win_counts().items()
    )
    lines.append(f"wins ({tallies}); contested tuples: "
                 f"{preferences.contested()}/{len(preferences)}")
    return "\n".join(lines)
