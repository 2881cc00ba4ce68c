"""Top-Down Specialization (Fung, Wang, Yu — ICDE 2005).

Starts from the fully generalized table (every QI at its hierarchy top) and
greedily *specializes* one cut token at a time — replacing it with its
children — choosing at each step the specialization that recovers the most
information while keeping the table k-anonymous.  Stops when no candidate
specialization preserves k.

The released table is a hierarchy-cut recoding: different branches of a
taxonomy may end at different granularities, which full-domain recoders
cannot express.
"""

from __future__ import annotations

from typing import Mapping

from ...datasets.dataset import Dataset
from ...hierarchy.base import Hierarchy
from ...hierarchy.numeric import IntervalHierarchy
from ...obs import metrics as obs_metrics
from ..engine import Anonymization
from .base import Anonymizer, check_k
from .cuts import (
    Cut,
    CutCoding,
    CutEvaluator,
    NumericSplitCut,
    apply_cuts,
    top_cuts,
)


class TopDownSpecialization(Anonymizer):
    """TDS k-anonymizer over hierarchy cuts.

    Parameters
    ----------
    k:
        The k-anonymity requirement (guaranteed — the search never leaves
        the k-anonymous region, and the fully generalized start satisfies
        any k <= N).
    max_specializations:
        Optional cap on performed specializations (None = until no valid
        candidate remains).
    flexible_numeric:
        Use Fung-style data-driven binary splits for numeric attributes
        (:class:`~repro.anonymize.algorithms.cuts.NumericSplitCut`) instead
        of the fixed hierarchy bands.  Interval hierarchies then only
        contribute their domain bounds.
    """

    def __init__(
        self,
        k: int,
        max_specializations: int | None = None,
        flexible_numeric: bool = False,
    ):
        self.k = check_k(k)
        if max_specializations is not None and max_specializations < 0:
            raise ValueError("max_specializations must be >= 0")
        self.max_specializations = max_specializations
        self.flexible_numeric = flexible_numeric
        self.name = f"tds[k={k}]" + ("-flex" if flexible_numeric else "")

    def _start_cuts(
        self, dataset: Dataset, hierarchies: Mapping[str, Hierarchy]
    ) -> dict[str, Cut]:
        cuts = top_cuts(dataset, hierarchies)
        if self.flexible_numeric:
            for attribute in dataset.schema.quasi_identifier_names:
                hierarchy = hierarchies[attribute]
                if isinstance(hierarchy, IntervalHierarchy):
                    cuts[attribute] = NumericSplitCut(hierarchy.bounds)
        return cuts

    def _trials(
        self,
        cuts: Mapping[str, Cut],
        numeric_columns: Mapping[str, list[int | float]],
    ) -> list[tuple[str, Cut]]:
        """Every legal one-step specialization as (attribute, new cut)."""
        trials: list[tuple[str, Cut]] = []
        for attribute, cut in cuts.items():
            if isinstance(cut, NumericSplitCut):
                column = numeric_columns[attribute]
                for segment in cut.specializations():
                    split = cut.split_value(segment, column)
                    if split is not None:
                        trials.append((attribute, cut.specialize(split)))
            else:
                for token in cut.specializations():
                    trials.append((attribute, cut.specialize(token)))
        return trials

    def search_cuts(
        self, dataset: Dataset, hierarchies: Mapping[str, Hierarchy]
    ) -> dict[str, Cut]:
        """The final cut per QI attribute."""
        if len(dataset) < self.k:
            raise ValueError(
                f"dataset of {len(dataset)} rows cannot be {self.k}-anonymized"
            )
        evaluator = CutEvaluator(
            dataset, self._start_cuts(dataset, hierarchies)
        )
        # The numeric values split points are drawn from, per flexible
        # attribute (the data never changes during the search).
        numeric_columns = {
            attribute: [
                v
                for v in dataset.column(attribute)
                if isinstance(v, (int, float))
            ]
            for attribute, cut in evaluator.cuts().items()
            if isinstance(cut, NumericSplitCut)
        }
        performed = 0
        while (
            self.max_specializations is None
            or performed < self.max_specializations
        ):
            current_loss = evaluator.total_loss()
            trials = self._trials(evaluator.cuts(), numeric_columns)
            obs_metrics().inc("cuts.trials", len(trials))
            best: tuple[float, CutCoding] | None = None
            for attribute, trial_cut in trials:
                trial = evaluator.coding(attribute, trial_cut)
                if evaluator.violations(self.k, trial) > 0:
                    continue
                gain = current_loss - evaluator.total_loss(trial)
                if best is None or gain > best[0]:
                    best = (gain, trial)
            if best is None:
                break
            evaluator.assign(best[1])
            obs_metrics().inc("cuts.steps")
            performed += 1
        return evaluator.cuts()

    def anonymize(
        self, dataset: Dataset, hierarchies: Mapping[str, Hierarchy]
    ) -> Anonymization:
        cuts = self.search_cuts(dataset, hierarchies)
        return apply_cuts(dataset, cuts, name=self.name)
