"""NSGA-II search for privacy/utility trade-off anonymizations.

Implements the optimization framework the paper's conclusion sketches:
privacy is *not* a constraint but an objective derived from the privacy
property vector, optimized jointly with utility.  The search space is the
full-domain generalization lattice; objectives are, by default:

* privacy objective — the rank index ``||D - D_max||`` of the equivalence
  class size property vector (distance to the single-class ideal; lower is
  better, Section 5.1);
* utility objective — the total general loss metric (lower is better).

The weighted-sum baseline (:func:`weighted_sum_search`) scalarizes the same
two objectives, which is exactly the single-objective framework the paper
says must change; benches compare the Pareto front against it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..anonymize.algorithms.base import RecodingWorkspace
from ..anonymize.engine import Anonymization
from ..datasets.dataset import Dataset
from ..hierarchy.base import Hierarchy
from ..hierarchy.lattice import Node
from .pareto import (
    Objectives,
    crowding_distance,
    fast_non_dominated_sort,
    non_dominated,
    normalized,
)

#: Objective function over a lattice node: (workspace, node) -> value to minimize.
ObjectiveFn = Callable[[RecodingWorkspace, Node], float]


def privacy_rank_objective(workspace: RecodingWorkspace, node: Node) -> float:
    """Distance of the class-size property vector from the all-N ideal."""
    sizes = workspace.class_sizes(node).tolist()
    total = len(workspace.dataset)
    # Per-tuple class sizes without materializing the release: each class of
    # size s contributes s tuples at distance (total - s).
    squared = sum(size * (total - size) ** 2 for size in sizes)
    return math.sqrt(squared)


def utility_loss_objective(workspace: RecodingWorkspace, node: Node) -> float:
    """Total general loss of the recoding at ``node``."""
    return workspace.node_loss(node)


def weighted_k_objective(workspace: RecodingWorkspace, node: Node) -> float:
    """Negated *weighted k* (Dewri et al., ICDE 2008 [2]) — the mean
    per-tuple equivalence class size, i.e. the paper's ``P_s-avg`` on the
    class-size property vector.

    Unlike the minimum (plain k), the weighted k credits protection
    delivered to *every* tuple; negated so the framework minimizes it.
    """
    sizes = workspace.class_sizes(node).tolist()
    total = len(workspace.dataset)
    if not total:
        return 0.0
    weighted_k = sum(size * size for size in sizes) / total
    return -weighted_k


@dataclass
class ParetoResult:
    """Outcome of a multi-objective anonymization search."""

    nodes: list[Node]
    objectives: list[Objectives]

    def __len__(self) -> int:
        return len(self.nodes)

    def materialize(
        self, workspace: RecodingWorkspace, k: int = 1
    ) -> list[Anonymization]:
        """Recode the front's nodes (suppressing classes < k if k > 1)."""
        return [
            workspace.apply(node, k, name=f"pareto{node}") for node in self.nodes
        ]


class Nsga2Search:
    """NSGA-II over the full-domain lattice.

    Parameters
    ----------
    objectives:
        Objective functions, all minimized (default: privacy rank +
        utility loss).
    population_size, generations:
        Search budget.
    mutation_rate:
        Per-attribute probability of a ±1 level step.
    seed:
        RNG seed; runs are deterministic per seed.
    """

    def __init__(
        self,
        objectives: Sequence[ObjectiveFn] = (
            privacy_rank_objective,
            utility_loss_objective,
        ),
        population_size: int = 32,
        generations: int = 30,
        mutation_rate: float = 0.2,
        seed: int = 0,
    ):
        if len(objectives) < 2:
            raise ValueError("multi-objective search needs >= 2 objectives")
        if population_size < 4 or population_size % 2:
            raise ValueError("population size must be even and >= 4")
        self.objectives = tuple(objectives)
        self.population_size = population_size
        self.generations = generations
        self.mutation_rate = mutation_rate
        self.seed = seed

    def _evaluate(self, workspace: RecodingWorkspace, node: Node) -> Objectives:
        return tuple(objective(workspace, node) for objective in self.objectives)

    def _random_node(
        self, workspace: RecodingWorkspace, rng: random.Random
    ) -> Node:
        return tuple(
            rng.randrange(height + 1) for height in workspace.lattice.heights
        )

    def _mutate(
        self, node: Node, workspace: RecodingWorkspace, rng: random.Random
    ) -> Node:
        levels = list(node)
        for position, height in enumerate(workspace.lattice.heights):
            if rng.random() < self.mutation_rate:
                step = 1 if rng.random() < 0.5 else -1
                levels[position] = min(max(levels[position] + step, 0), height)
        return tuple(levels)

    def _crossover(
        self, a: Node, b: Node, rng: random.Random
    ) -> Node:
        return tuple(
            a[i] if rng.random() < 0.5 else b[i] for i in range(len(a))
        )

    def search(
        self, dataset: Dataset, hierarchies: Mapping[str, Hierarchy]
    ) -> ParetoResult:
        """Run the search; returns the non-dominated front found."""
        workspace = RecodingWorkspace(dataset, hierarchies)
        rng = random.Random(self.seed)
        scores: dict[Node, Objectives] = {}

        def evaluate(node: Node) -> Objectives:
            if node not in scores:
                scores[node] = self._evaluate(workspace, node)
            return scores[node]

        population = list(
            dict.fromkeys(
                self._random_node(workspace, rng)
                for _ in range(self.population_size)
            )
        )
        while len(population) < self.population_size:
            population.append(self._random_node(workspace, rng))

        for _ in range(self.generations):
            points = [evaluate(node) for node in population]
            fronts = fast_non_dominated_sort(points)
            rank_of = {}
            crowd_of = {}
            for front_rank, front in enumerate(fronts):
                distances = crowding_distance(points, front)
                for member in front:
                    rank_of[member] = front_rank
                    crowd_of[member] = distances[member]

            def tournament() -> Node:
                i = rng.randrange(len(population))
                j = rng.randrange(len(population))
                if rank_of[i] != rank_of[j]:
                    return population[i if rank_of[i] < rank_of[j] else j]
                return population[i if crowd_of[i] >= crowd_of[j] else j]

            offspring = []
            while len(offspring) < self.population_size:
                child = self._crossover(tournament(), tournament(), rng)
                child = self._mutate(child, workspace, rng)
                offspring.append(child)

            # Environmental selection over parents + offspring.
            combined = population + offspring
            combined_points = [evaluate(node) for node in combined]
            combined_fronts = fast_non_dominated_sort(combined_points)
            survivors: list[int] = []
            for front in combined_fronts:
                if len(survivors) + len(front) <= self.population_size:
                    survivors.extend(front)
                else:
                    distances = crowding_distance(combined_points, front)
                    remaining = self.population_size - len(survivors)
                    ranked = sorted(front, key=lambda i: distances[i], reverse=True)
                    survivors.extend(ranked[:remaining])
                    break
            population = [combined[i] for i in survivors]

        final_points = [evaluate(node) for node in population]
        keep = non_dominated(final_points)
        unique: dict[Node, Objectives] = {}
        for index in keep:
            unique[population[index]] = final_points[index]
        nodes = sorted(unique)
        return ParetoResult(nodes=nodes, objectives=[unique[n] for n in nodes])


def weighted_sum_search(
    dataset: Dataset,
    hierarchies: Mapping[str, Hierarchy],
    weight: float,
    objectives: Sequence[ObjectiveFn] = (
        privacy_rank_objective,
        utility_loss_objective,
    ),
) -> tuple[Node, Objectives]:
    """Exhaustive scalarized baseline: minimize
    ``weight·f1_norm + (1-weight)·f2_norm`` over the whole lattice.

    Objectives are min-max normalized over the lattice before weighting.
    Returns the winning node and its raw objective values.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must be in [0,1], got {weight}")
    workspace = RecodingWorkspace(dataset, hierarchies)
    nodes = list(workspace.lattice.nodes())
    raw = [
        tuple(objective(workspace, node) for objective in objectives)
        for node in nodes
    ]
    scaled = normalized(raw)
    dimensions = len(scaled[0])
    if dimensions == 2:
        weights: tuple[float, ...] = (weight, 1.0 - weight)
    else:
        weights = tuple(1.0 / dimensions for _ in range(dimensions))
    scores = [
        sum(value * w for value, w in zip(row, weights)) for row in scaled
    ]
    best = min(range(len(scores)), key=scores.__getitem__)
    return nodes[best], raw[best]
