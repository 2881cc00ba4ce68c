"""Samarati's binary search for k-minimal full-domain generalizations.

k-anonymity (with a fixed suppression budget) is monotone in lattice height:
if some node at height h satisfies it, some node at every greater height
does too (its ancestors).  Samarati's algorithm binary-searches the height
for the lowest stratum containing a satisfying node; all satisfying nodes at
that height are *k-minimal generalizations*, among which one is picked by a
preference rule — here, minimum total loss (LM), the "preference information
provided by the data recipient" of the original paper.
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


class Samarati(Anonymizer):
    """Samarati k-anonymizer.

    Parameters
    ----------
    k:
        The k-anonymity requirement.
    suppression_limit:
        Maximum fraction of rows that may be suppressed.
    """

    def __init__(self, k: int, suppression_limit: float = 0.02):
        self.k = check_k(k)
        self.suppression_limit = check_suppression_limit(suppression_limit)
        self.name = f"samarati[k={k}]"

    def _verdicts(self, workspace: RecodingWorkspace) -> Callable[[Node], bool]:
        """The node verdict of one search, each node decided once."""
        budget = int(self.suppression_limit * len(workspace.dataset))
        decided: dict[Node, bool] = {}

        def satisfies(node: Node) -> bool:
            verdict = decided.get(node)
            if verdict is None:
                verdict = decided[node] = workspace.satisfies_k(node, self.k, budget)
            return verdict

        return satisfies

    def minimal_height(
        self,
        workspace: RecodingWorkspace,
        satisfies: Callable[[Node], bool] | None = None,
    ) -> int:
        """Lowest lattice height containing a satisfying node.

        ``satisfies`` is the search's memoized verdict (a fresh one when
        omitted), so the caller can reuse the nodes decided here.
        """
        satisfies = satisfies or self._verdicts(workspace)
        lattice = workspace.lattice

        def satisfiable_at(height: int) -> bool:
            return any(map(satisfies, lattice.nodes_at_height(height)))

        if not satisfiable_at(lattice.max_height):
            raise AlgorithmError(
                f"no generalization satisfies k={self.k} within the "
                f"suppression budget, even at the lattice top"
            )
        low, high = 0, lattice.max_height
        while low < high:
            middle = (low + high) // 2
            if satisfiable_at(middle):
                high = middle
            else:
                low = middle + 1
        return low

    def k_minimal_nodes(
        self, dataset: Dataset, hierarchies: Mapping[str, Hierarchy]
    ) -> list[Node]:
        """All satisfying nodes at the minimal height (k-minimal
        generalizations)."""
        workspace = RecodingWorkspace(dataset, hierarchies)
        return self._k_minimal_nodes(workspace)

    def _k_minimal_nodes(self, workspace: RecodingWorkspace) -> list[Node]:
        satisfies = self._verdicts(workspace)
        height = self.minimal_height(workspace, satisfies)
        return [
            node
            for node in workspace.lattice.nodes_at_height(height)
            if satisfies(node)
        ]

    def anonymize(
        self, dataset: Dataset, hierarchies: Mapping[str, Hierarchy]
    ) -> Anonymization:
        workspace = RecodingWorkspace(dataset, hierarchies)
        nodes = self._k_minimal_nodes(workspace)
        chosen = min(nodes, key=workspace.node_loss)
        return workspace.apply(chosen, self.k, name=self.name)
