"""Utility-optimal full-domain k-anonymization.

A systematic-search analog of Bayardo-Agrawal's optimal k-anonymization,
restated on the full-domain lattice (the original searches set-based
recodings; see DESIGN.md, Substitutions).  Two monotonicity facts prune the
search:

* k-anonymity (with a fixed suppression budget) is monotone upward — every
  ancestor of a satisfying node satisfies;
* every cost metric used here (LM, DM) is non-decreasing along
  generalization.

Hence the optimum lies on the *minimal satisfying frontier*; the search
enumerates nodes bottom-up by height, skips descendants-of-nothing, and
scores only frontier nodes.
"""

from __future__ import annotations

from typing import Callable, Mapping

from ...datasets.dataset import Dataset
from ...hierarchy.base import Hierarchy
from ...hierarchy.lattice import Node
from ..engine import Anonymization
from .base import (
    AlgorithmError,
    Anonymizer,
    RecodingWorkspace,
    check_k,
    check_suppression_limit,
)

#: Cost function over a candidate node: (workspace, node, k) -> cost.
CostFunction = Callable[[RecodingWorkspace, Node, int], float]


def loss_metric_cost(workspace: RecodingWorkspace, node: Node, k: int) -> float:
    """LM cost: total generalization loss plus full loss for suppressed rows."""
    violating = workspace.violating_rows(node, k)
    base = workspace.node_loss(node)
    if not violating:
        return base
    # A suppressed row's cells all reach loss 1; replace its recoded loss.
    per_row_recoded = [
        sum(workspace.loss_column(name, level)[row_index]
            for name, level in zip(workspace.qi_names, node))
        for row_index in violating
    ]
    qi_count = len(workspace.qi_names)
    return base + sum(qi_count - recoded for recoded in per_row_recoded)


def discernibility_cost(workspace: RecodingWorkspace, node: Node, k: int) -> float:
    """DM cost: Σ|class|² over surviving classes + N per suppressed row."""
    sizes = workspace.class_sizes(node).tolist()
    total = len(workspace.dataset)
    cost = 0.0
    for size in sizes:
        if size < k:
            cost += size * total
        else:
            cost += size * size
    return cost


class OptimalLattice(Anonymizer):
    """Exhaustive minimal-frontier search for the cost-optimal recoding.

    Parameters
    ----------
    k:
        The k-anonymity requirement.
    suppression_limit:
        Maximum fraction of rows that may be suppressed.
    cost:
        Cost function to minimize (default: the general loss metric).
    """

    def __init__(
        self,
        k: int,
        suppression_limit: float = 0.02,
        cost: CostFunction = loss_metric_cost,
    ):
        self.k = check_k(k)
        self.suppression_limit = check_suppression_limit(suppression_limit)
        self.cost = cost
        self.name = f"optimal[k={k}]"

    def _sweep(self, workspace: RecodingWorkspace) -> tuple[list[Node], set[Node]]:
        """Bottom-up sweep; returns (minimal frontier, all satisfying)."""
        budget = int(self.suppression_limit * len(workspace.dataset))
        lattice = workspace.lattice
        satisfying: set[Node] = set()
        frontier: list[Node] = []
        for height in range(lattice.max_height + 1):
            for node in lattice.nodes_at_height(height):
                dominated = any(
                    predecessor in satisfying
                    for predecessor in lattice.predecessors(node)
                )
                if dominated:
                    # Monotonicity: satisfies, but not minimal.
                    satisfying.add(node)
                    continue
                if workspace.satisfies_k(node, self.k, budget):
                    satisfying.add(node)
                    frontier.append(node)
        return frontier, satisfying

    def anonymize(
        self, dataset: Dataset, hierarchies: Mapping[str, Hierarchy]
    ) -> Anonymization:
        workspace = RecodingWorkspace(dataset, hierarchies)
        frontier, satisfying = self._sweep(workspace)
        if not frontier:
            raise AlgorithmError(
                f"no generalization satisfies k={self.k} within the "
                f"suppression budget"
            )
        # Without suppression every cost metric here is monotone along
        # generalization, so the optimum lies on the minimal frontier.  With
        # a budget, extra generalization can trade against suppression
        # penalties, so all satisfying nodes must be scored.
        budget = int(self.suppression_limit * len(dataset))
        candidates = frontier if budget == 0 else sorted(satisfying)
        chosen = min(candidates, key=lambda node: self.cost(workspace, node, self.k))
        return workspace.apply(chosen, self.k, name=self.name)
