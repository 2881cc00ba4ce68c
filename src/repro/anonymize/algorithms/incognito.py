"""Incognito (LeFevre, DeWitt, Ramakrishnan).

Incognito computes *all* k-anonymous full-domain generalizations by dynamic
programming over quasi-identifier subsets: a node can only be k-anonymous
over a QI set if each of its projections onto the (i-1)-subsets is
k-anonymous (k-anonymity is anti-monotone under adding attributes), and
within one sub-lattice k-anonymity is monotone upward (the generalization
property), so ancestors of a known-anonymous node are marked without
rechecking.

The final release is the minimum-loss node among the minimal k-anonymous
nodes of the full QI set.  :meth:`k_anonymous_nodes` exposes the complete
set, which downstream comparisons (the paper's use case) can mine for
candidate anonymizations.
"""

from __future__ import annotations

import itertools
from typing import Mapping

from ...datasets.dataset import Dataset
from ...hierarchy.base import Hierarchy
from ...hierarchy.lattice import Lattice, Node
from ..engine import Anonymization
from .base import (
    AlgorithmError,
    Anonymizer,
    RecodingWorkspace,
    check_k,
    check_suppression_limit,
)


class Incognito(Anonymizer):
    """Incognito k-anonymizer.

    Parameters
    ----------
    k:
        The k-anonymity requirement.
    suppression_limit:
        Maximum fraction of rows that may be suppressed (0 reproduces the
        original algorithm exactly).
    """

    def __init__(self, k: int, suppression_limit: float = 0.0):
        self.k = check_k(k)
        self.suppression_limit = check_suppression_limit(suppression_limit)
        self.name = f"incognito[k={k}]"

    def _anonymous_sublattice(
        self,
        workspace: RecodingWorkspace,
        attributes: tuple[str, ...],
        previous: dict[tuple[str, ...], set[Node]],
        budget: int,
    ) -> set[Node]:
        """k-anonymous nodes of one QI-subset sub-lattice."""
        sub_lattice = Lattice([workspace.hierarchies[name] for name in attributes])
        # Per dropped attribute, the anonymous nodes of the projection that
        # omits it (none to consult for a single attribute).
        projections = (
            [
                (drop, previous[attributes[:drop] + attributes[drop + 1 :]])
                for drop in range(len(attributes))
            ]
            if len(attributes) > 1
            else []
        )

        def projections_anonymous(node: Node) -> bool:
            return all(
                node[:drop] + node[drop + 1 :] in known
                for drop, known in projections
            )

        anonymous: set[Node] = set()
        # Bottom-up breadth-first sweep; the generalization property marks
        # every ancestor of an anonymous node without a frequency-set pass.
        for height in range(sub_lattice.max_height + 1):
            for node in sub_lattice.nodes_at_height(height):
                if node in anonymous:
                    continue
                if not projections_anonymous(node):
                    continue
                if any(
                    predecessor in anonymous
                    for predecessor in sub_lattice.predecessors(node)
                ):
                    anonymous.add(node)
                    continue
                if workspace.satisfies_k(node, self.k, budget, attributes):
                    anonymous.add(node)
        return anonymous

    def k_anonymous_nodes(
        self, dataset: Dataset, hierarchies: Mapping[str, Hierarchy]
    ) -> list[Node]:
        """All k-anonymous nodes of the full QI lattice."""
        workspace = RecodingWorkspace(dataset, hierarchies)
        return self._k_anonymous_nodes(workspace)

    def _k_anonymous_nodes(self, workspace: RecodingWorkspace) -> list[Node]:
        budget = int(self.suppression_limit * len(workspace.dataset))
        qi_names = workspace.qi_names
        results: dict[tuple[str, ...], set[Node]] = {}
        for size in range(1, len(qi_names) + 1):
            for subset in itertools.combinations(qi_names, size):
                results[subset] = self._anonymous_sublattice(
                    workspace, subset, results, budget
                )
        return sorted(results[tuple(qi_names)])

    def minimal_nodes(
        self, dataset: Dataset, hierarchies: Mapping[str, Hierarchy]
    ) -> list[Node]:
        """The minimal (least generalized) k-anonymous nodes."""
        workspace = RecodingWorkspace(dataset, hierarchies)
        nodes = self._k_anonymous_nodes(workspace)
        return workspace.lattice.minimal_nodes(nodes)

    def anonymize(
        self, dataset: Dataset, hierarchies: Mapping[str, Hierarchy]
    ) -> Anonymization:
        workspace = RecodingWorkspace(dataset, hierarchies)
        nodes = self._k_anonymous_nodes(workspace)
        if not nodes:
            raise AlgorithmError(
                f"no full-domain generalization satisfies k={self.k} within "
                f"the suppression budget"
            )
        minimal = workspace.lattice.minimal_nodes(nodes)
        chosen = min(minimal, key=workspace.node_loss)
        return workspace.apply(chosen, self.k, name=self.name)
