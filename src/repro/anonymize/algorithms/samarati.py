"""Samarati's search for k-minimal full-domain generalizations.

Where every quasi-identifier's level table is nested, k-anonymity (with a
fixed suppression budget) is monotone in lattice height: if some node at
height h satisfies it, some node at every greater height does too (its
ancestors).  The satisfying nodes of the lowest stratum that has any are
the *k-minimal generalizations*, among which one is picked by a preference
rule — here, minimum total loss (LM), the "preference information provided
by the data recipient" of the original paper.

Samarati binary-searched that height.  Here the search descends from the
top stratum, one stratum at a time, and deciding a node first decides its
one-level generalizations: a node with a failing generalization fails
without a count.  Each stratum's probe stops at its first satisfying node,
so a stratum the descent passes costs few counts, and the one failing
stratum that ends it is mostly inferred from the stratum above.
"""

from __future__ import annotations

from typing import Callable, Mapping

from ...datasets.dataset import Dataset
from ...hierarchy.base import Hierarchy
from ...hierarchy.lattice import Node
from ...obs import metrics as obs_metrics
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
        """The node verdict of one search, each node decided once.

        A node's one-level generalizations along nested attributes are
        decided first: one already known to fail, or else the first to
        fail when counted in attribute order, fails the node without a
        class-size pass (the generalization property, see
        :meth:`RecodingWorkspace.nested_neighbors`).  Only a node whose
        every such generalization satisfies is counted.
        """
        budget = int(self.suppression_limit * len(workspace.dataset))
        decided: dict[Node, bool] = {}

        def counted(node: Node) -> bool:
            verdict = decided.get(node)
            if verdict is None:
                verdict = decided[node] = workspace.satisfies_k(node, self.k, budget)
            return verdict

        def satisfies(node: Node) -> bool:
            verdict = decided.get(node)
            if verdict is not None:
                return verdict
            generalizations = tuple(workspace.nested_neighbors(node, upward=True))
            if False in map(decided.get, generalizations) or not all(
                map(counted, generalizations)
            ):
                obs_metrics().inc("workspace.verdict.inferred")
                decided[node] = False
                return False
            return counted(node)

        return satisfies

    def minimal_height(
        self,
        workspace: RecodingWorkspace,
        satisfies: Callable[[Node], bool] | None = None,
    ) -> int:
        """The lowest height ``h`` such that every stratum from ``h`` to the
        top holds a satisfying node.

        The search descends from the top and stops at the first stratum
        without one.  When every quasi-identifier's level table is nested
        the verdicts are monotone, and this is the lowest height holding
        any satisfying node.  ``satisfies`` is the search's memoized
        verdict (a fresh one when omitted), so the caller can reuse the
        nodes decided here.
        """
        satisfies = satisfies or self._verdicts(workspace)
        lattice = workspace.lattice

        def satisfiable_at(height: int) -> bool:
            return any(map(satisfies, lattice.nodes_at_height(height)))

        height = lattice.max_height
        if not satisfiable_at(height):
            raise AlgorithmError(
                f"no generalization satisfies k={self.k} within the "
                f"suppression budget, even at the lattice top"
            )
        while height and satisfiable_at(height - 1):
            height -= 1
        return height

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
