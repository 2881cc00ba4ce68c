"""Bottom-Up Generalization (Wang, Yu, Chakraborty — ICDM 2004).

The mirror image of top-down specialization: start from the raw table and
greedily *generalize* — merging a sibling group into its parent (taxonomy)
or raising a level (ordered hierarchies) — until the table is k-anonymous.
Each step picks the candidate with the best benefit/cost ratio: violation
rows removed per unit of information loss added.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from ...datasets.dataset import Dataset
from ...hierarchy.base import Hierarchy
from ...obs import metrics as obs_metrics
from ..engine import Anonymization
from .base import Anonymizer, check_k
from .cuts import (
    Cut,
    CutCoding,
    CutEvaluator,
    apply_cuts,
    bottom_cuts,
)


class BottomUpGeneralization(Anonymizer):
    """BUG k-anonymizer over hierarchy cuts.

    Parameters
    ----------
    k:
        The k-anonymity requirement (guaranteed: the fully generalized
        table is always reachable and satisfies any k <= N).
    """

    def __init__(self, k: int):
        self.k = check_k(k)
        self.name = f"bug[k={k}]"

    def _candidates(
        self, cuts: Mapping[str, Cut]
    ) -> list[tuple[str, Hashable | int]]:
        return [
            (attribute, parent)
            for attribute, cut in cuts.items()
            for parent in cut.generalizations()
        ]

    def search_cuts(
        self, dataset: Dataset, hierarchies: Mapping[str, Hierarchy]
    ) -> dict[str, Cut]:
        """The final cut per QI attribute."""
        if len(dataset) < self.k:
            raise ValueError(
                f"dataset of {len(dataset)} rows cannot be {self.k}-anonymized"
            )
        evaluator = CutEvaluator(dataset, bottom_cuts(dataset, hierarchies))
        current_violations = evaluator.violations(self.k)
        while current_violations > 0:
            current_loss = evaluator.total_loss()
            cuts = evaluator.cuts()
            candidates = self._candidates(cuts)
            obs_metrics().inc("cuts.trials", len(candidates))
            best: tuple[float, CutCoding, int] | None = None
            for attribute, parent in candidates:
                trial = evaluator.coding(
                    attribute, cuts[attribute].generalize(parent)
                )
                violations = evaluator.violations(self.k, trial)
                removed = current_violations - violations
                added_loss = evaluator.total_loss(trial) - current_loss
                # Benefit/cost; free-loss candidates rank by removals alone.
                score = removed / added_loss if added_loss > 0 else float(removed)
                if best is None or score > best[0]:
                    best = (score, trial, violations)
            if best is None:
                # No candidate left: the cut is the hierarchy top already
                # but violations remain — impossible for k <= N since the
                # top puts all rows in one group.
                raise AssertionError("generalization exhausted below k")
            _, trial, current_violations = best
            evaluator.assign(trial)
            obs_metrics().inc("cuts.steps")
        return evaluator.cuts()

    def anonymize(
        self, dataset: Dataset, hierarchies: Mapping[str, Hierarchy]
    ) -> Anonymization:
        cuts = self.search_cuts(dataset, hierarchies)
        return apply_cuts(dataset, cuts, name=self.name)
