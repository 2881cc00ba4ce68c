"""Incognito (LeFevre, DeWitt, Ramakrishnan).

Incognito computes *all* k-anonymous full-domain generalizations by dynamic
programming over quasi-identifier subsets: a node can only be k-anonymous
over a QI set if each of its projections onto the (i-1)-subsets is
k-anonymous (k-anonymity is anti-monotone under adding attributes), and
within one sub-lattice k-anonymity is monotone upward along every attribute
whose level table is nested (the generalization property), so a node one
nested level above a known-anonymous node is marked without rechecking.
Across a non-nested attribute a class can split, and the node is counted.

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
        anonymous: set[Node] = set()
        # Bottom-up breadth-first sweep; the generalization property marks
        # a node anonymous without a frequency-set pass when a predecessor
        # along a nested attribute is (see ``nested_neighbors``).
        for node in self._candidates(workspace, attributes, previous):
            if not anonymous.isdisjoint(
                workspace.nested_neighbors(node, attributes, upward=False)
            ):
                obs_metrics().inc("workspace.verdict.inferred")
                anonymous.add(node)
            elif workspace.satisfies_k(node, self.k, budget, attributes):
                anonymous.add(node)
        return anonymous

    @staticmethod
    def _candidates(
        workspace: RecodingWorkspace,
        attributes: tuple[str, ...],
        previous: dict[tuple[str, ...], set[Node]],
    ) -> list[Node]:
        """The sub-lattice's nodes whose every projection onto one
        attribute fewer is k-anonymous, by height, then lexicographically.

        Incognito's candidate generation: each anonymous node of the
        projection that drops the last attribute is extended by every
        level of it, and the other projections filter the result, so the
        nodes they rule out are never visited.
        """
        last = len(attributes) - 1
        levels = range(workspace.hierarchies[attributes[last]].height + 1)
        if not last:
            return [(level,) for level in levels]
        candidates = [
            node + (level,) for node in previous[attributes[:last]] for level in levels
        ]
        for drop in range(last):
            known = previous[attributes[:drop] + attributes[drop + 1 :]]
            candidates = [
                node for node in candidates if node[:drop] + node[drop + 1 :] in known
            ]
        candidates.sort(key=lambda node: (sum(node), node))
        return candidates

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
