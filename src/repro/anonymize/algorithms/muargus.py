"""A μ-Argus-style greedy anonymizer (Hundepool and Willenborg).

μ-Argus checks the frequencies of *combinations* of quasi-identifiers only
up to a configured dimension, greedily generalizes the attributes involved
in the most unsafe (below-threshold) combinations, and finally locally
suppresses the remaining unsafe rows.  Because combinations larger than
``max_combination_size`` are never checked, the released table is **not
guaranteed** to be k-anonymous over the full quasi-identifier — the
documented shortcoming Sweeney reported [16], reproduced faithfully here
(and surfaced by this library's tests).
"""

from __future__ import annotations

import itertools
from typing import Mapping

from ...datasets.dataset import Dataset
from ...hierarchy.base import Hierarchy
from ...hierarchy.lattice import Node
from ..engine import Anonymization, recode
from .base import (
    Anonymizer,
    RecodingWorkspace,
    check_k,
    check_suppression_limit,
)


class MuArgus(Anonymizer):
    """μ-Argus-style k-anonymizer.

    Parameters
    ----------
    k:
        The frequency threshold for combinations.
    max_combination_size:
        Largest QI combination whose frequencies are checked (the original
        tool's key limitation; default 2).
    suppression_limit:
        Cap on locally suppressed rows; generalization continues while the
        unsafe row count exceeds it.
    """

    def __init__(
        self,
        k: int,
        max_combination_size: int = 2,
        suppression_limit: float = 0.05,
    ):
        self.k = check_k(k)
        if max_combination_size < 1:
            raise ValueError(
                f"max combination size must be >= 1, got {max_combination_size}"
            )
        self.max_combination_size = max_combination_size
        self.suppression_limit = check_suppression_limit(suppression_limit)
        self.name = f"muargus[k={k},dim={max_combination_size}]"

    def _unsafe_rows_by_attribute(
        self,
        workspace: RecodingWorkspace,
        levels: dict[str, int],
        counted: dict[tuple[tuple[str, ...], Node], tuple[int, list[int]]],
    ) -> tuple[set[int], dict[str, int]]:
        """Rows appearing in any unsafe (< k) combination up to the checked
        dimension, and per-attribute unsafe-combination involvement.

        A combination's unsafe classes are read from its class-size
        histogram alone, which the table's other searches share; only a
        combination that has any is partitioned, to find its rows.
        ``counted`` memoizes both per (combination, node) for one search:
        a round raises one attribute, so only the combinations holding it
        are looked up again."""
        qi_names = workspace.qi_names
        unsafe_rows: set[int] = set()
        involvement = {name: 0 for name in qi_names}
        dimension = min(self.max_combination_size, len(qi_names))
        for size in range(1, dimension + 1):
            for subset in itertools.combinations(qi_names, size):
                node = tuple(levels[name] for name in subset)
                entry = counted.get((subset, node))
                if entry is None:
                    unsafe_classes = workspace.unsafe_class_count(
                        node, self.k, subset
                    )
                    rows = (
                        workspace.violating_rows(node, self.k, subset)
                        if unsafe_classes
                        else []
                    )
                    entry = counted[(subset, node)] = (unsafe_classes, rows)
                unsafe_classes, rows = entry
                if not unsafe_classes:
                    continue
                unsafe_rows.update(rows)
                for name in subset:
                    involvement[name] += unsafe_classes
        return unsafe_rows, involvement

    def anonymize(
        self, dataset: Dataset, hierarchies: Mapping[str, Hierarchy]
    ) -> Anonymization:
        workspace = RecodingWorkspace(dataset, hierarchies)
        levels = {name: 0 for name in workspace.qi_names}
        budget = int(self.suppression_limit * len(dataset))
        counted: dict[tuple[tuple[str, ...], Node], tuple[int, list[int]]] = {}

        # Both exits leave ``levels`` as last checked, so the final unsafe
        # rows are the last iteration's.
        while True:
            unsafe_rows, involvement = self._unsafe_rows_by_attribute(
                workspace, levels, counted
            )
            if len(unsafe_rows) <= budget:
                break
            candidates = [
                name
                for name in workspace.qi_names
                if levels[name] < workspace.hierarchies[name].height
                and involvement[name] > 0
            ]
            if not candidates:
                break
            chosen = max(candidates, key=lambda name: involvement[name])
            levels[chosen] += 1

        return recode(
            dataset,
            workspace.hierarchies,
            levels,
            suppress=sorted(unsafe_rows),
            name=self.name,
        )
