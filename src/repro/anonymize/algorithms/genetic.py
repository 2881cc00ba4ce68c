"""Iyengar-style genetic k-anonymization.

Iyengar [KDD 2002] posed k-anonymization as optimization over *flexible*
generalizations — for an ordered attribute domain, any partition into
contiguous intervals (encoded as a split-point bitstring), a much larger
space than the hierarchy's fixed levels — and searched it with a genetic
algorithm penalizing classes below k.  Lunacek, Whitley and Ray [GECCO 2006]
sped this up with a crossover operator that preserves the hierarchy
constraints on categorical attributes.

This implementation follows that design:

* numeric quasi-identifiers use split-point bitstrings over the sorted
  distinct values (fully flexible intervals);
* categorical quasi-identifiers use hierarchy level genes, so every
  chromosome respects the taxonomy by construction — the feasibility
  invariant Lunacek's crossover enforces;
* fitness is the general loss metric plus an Iyengar-style penalty charging
  each row of an undersized class the full suppression loss;
* selection is tournament-based with elitism; crossover is uniform per
  gene-block; mutation flips split bits / perturbs level genes.

The GA is seeded and deterministic for a given configuration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ...datasets.dataset import Dataset
from ...datasets.schema import AttributeKind
from ...hierarchy.base import SUPPRESSED, Hierarchy
from ...hierarchy.codes import level_table
from ...hierarchy.numeric import Span
from ...kernels import active as active_kernels, pack_columns
from ..engine import Anonymization, released_from_classes
from .base import AlgorithmError, Anonymizer, check_k


@dataclass
class _NumericGene:
    """Split-point bitstring over an attribute's sorted distinct values.

    ``splits[i]`` set means an interval boundary between sorted value i and
    i+1; all-zero is full generalization to one interval, all-one keeps the
    raw values.
    """

    attribute: str
    splits: list[bool]  # one flag per boundary between sorted distinct values


@dataclass
class _CategoricalGene:
    """Hierarchy level for a categorical attribute."""

    attribute: str
    level: int


class _Chromosome:
    def __init__(self, genes: list[_NumericGene | _CategoricalGene]):
        self.genes = genes

    def copy(self) -> "_Chromosome":
        copied: list[_NumericGene | _CategoricalGene] = []
        for gene in self.genes:
            if isinstance(gene, _NumericGene):
                copied.append(_NumericGene(gene.attribute, list(gene.splits)))
            else:
                copied.append(_CategoricalGene(gene.attribute, gene.level))
        return _Chromosome(copied)


class GeneticAnonymizer(Anonymizer):
    """Genetic k-anonymizer over flexible generalizations.

    Parameters
    ----------
    k:
        The k-anonymity requirement.
    population_size, generations:
        GA budget.
    mutation_rate:
        Per-bit / per-gene mutation probability.
    tournament:
        Tournament size for selection.
    elitism:
        Number of best chromosomes copied unchanged each generation.
    seed:
        RNG seed; runs are deterministic per seed.
    """

    def __init__(
        self,
        k: int,
        population_size: int = 40,
        generations: int = 60,
        mutation_rate: float = 0.02,
        tournament: int = 3,
        elitism: int = 2,
        seed: int = 0,
    ):
        self.k = check_k(k)
        if population_size < 2:
            raise AlgorithmError("population size must be >= 2")
        if generations < 1:
            raise AlgorithmError("generations must be >= 1")
        if not 0.0 <= mutation_rate <= 1.0:
            raise AlgorithmError("mutation rate must be in [0,1]")
        if tournament < 1 or tournament > population_size:
            raise AlgorithmError("tournament size must be in [1, population]")
        if elitism < 0 or elitism >= population_size:
            raise AlgorithmError("elitism must be in [0, population)")
        self.population_size = population_size
        self.generations = generations
        self.mutation_rate = mutation_rate
        self.tournament = tournament
        self.elitism = elitism
        self.seed = seed
        self.name = f"genetic[k={k}]"

    # -- decoding ---------------------------------------------------------------

    def _attribute_plan(
        self, dataset: Dataset, hierarchies: Mapping[str, Hierarchy]
    ) -> list[tuple[str, AttributeKind, Any]]:
        plan = []
        for attribute in dataset.schema.quasi_identifiers:
            if attribute.kind is AttributeKind.NUMERIC:
                distinct = sorted(dataset.distinct(attribute.name))
                plan.append((attribute.name, attribute.kind, distinct))
            else:
                hierarchy = hierarchies.get(attribute.name)
                if hierarchy is None:
                    raise AlgorithmError(
                        f"categorical QI {attribute.name!r} needs a hierarchy"
                    )
                plan.append((attribute.name, attribute.kind, hierarchy))
        return plan

    def _random_chromosome(self, plan: list, rng: random.Random) -> _Chromosome:
        genes: list[_NumericGene | _CategoricalGene] = []
        for attribute, kind, info in plan:
            if kind is AttributeKind.NUMERIC:
                size = max(len(info) - 1, 0)
                genes.append(
                    _NumericGene(
                        attribute, [rng.random() < 0.5 for _ in range(size)]
                    )
                )
            else:
                genes.append(
                    _CategoricalGene(attribute, rng.randrange(info.height + 1))
                )
        return _Chromosome(genes)

    @staticmethod
    def _intervals(distinct: Sequence[float], splits: Sequence[bool]) -> list[Span]:
        """Contiguous value groups encoded by the split bitstring."""
        spans = []
        start = 0
        for position, is_split in enumerate(splits):
            if is_split:
                spans.append(Span(float(distinct[start]), float(distinct[position])))
                start = position + 1
        spans.append(Span(float(distinct[start]), float(distinct[-1])))
        return spans

    def _decode_columns(
        self, dataset: Dataset, plan: list, chromosome: _Chromosome
    ) -> dict[str, list[Any]]:
        """Released QI cell per row per attribute for this chromosome."""
        columns: dict[str, list[Any]] = {}
        for gene, (attribute, kind, info) in zip(chromosome.genes, plan):
            raw = dataset.column(attribute)
            if isinstance(gene, _NumericGene):
                spans = self._intervals(info, gene.splits)
                lookup = {}
                for span in spans:
                    for value in info:
                        if value in span:
                            lookup[value] = span
                columns[attribute] = [
                    value if lookup[value].width == 0 else lookup[value]
                    for value in raw
                ]
            else:
                hierarchy = info
                column = dataset.columns().column(attribute)
                built = level_table(column, hierarchy).level(gene.level)
                values = built.values
                columns[attribute] = [values[code] for code in column.codes]
        return columns

    # -- fitness -----------------------------------------------------------------

    def _fitness(
        self,
        dataset: Dataset,
        plan: list,
        hierarchies: Mapping[str, Hierarchy],
        chromosome: _Chromosome,
    ) -> float:
        """Total loss + penalty for undersized classes (lower is better).

        Runs on the columnar plane: per attribute the loss increment is
        scored once per distinct base value and accumulated per row through
        the interned codes — the per-row ``+=`` order (attribute-major, row
        order within each attribute) matches the row plane exactly, so the
        fitness floats are bit-identical and seeded runs are unchanged.
        """
        kernels = active_kernels()
        view = dataset.columns()
        loss = 0.0
        qi_count = len(plan)
        columns: list[tuple[Any, int]] = []
        for gene, (attribute, kind, info) in zip(chromosome.genes, plan):
            column = view.column(attribute)
            base = kernels.from_code_buffer(column.codes)
            per_base: list[float]
            if isinstance(gene, _NumericGene):
                spans = self._intervals(info, gene.splits)
                span_of: dict[Any, int] = {}
                for index, span in enumerate(spans):
                    for value in info:
                        if value in span:
                            span_of[value] = index
                domain = max(info) - min(info)
                gather = [0] * column.domain_size
                per_base = [0.0] * column.domain_size
                for code, value in enumerate(column.decode):
                    index = span_of[value]
                    gather[code] = index
                    span = spans[index]
                    if span.width > 0 and domain > 0:
                        per_base[code] = min(1.0, span.width / domain)
                codes = kernels.gather(gather, base)
                radix = len(spans)
            else:
                hierarchy = info
                built = level_table(column, hierarchy).level(gene.level)
                cell_loss = [hierarchy.released_loss(value) for value in built.decode]
                per_base = [cell_loss[code] for code in built.gather]
                codes = kernels.gather(built.gather, base)
                radix = built.count
            for code in column.codes:
                loss += per_base[code]
            columns.append((codes, radix))

        # Iyengar's penalty: every row of a class below k is charged as if
        # suppressed (full loss across all QIs).
        penalty = 0
        keys, bound = pack_columns(kernels, columns)
        if keys is not None:
            sizes = kernels.key_sizes(keys, bound)
            penalty = kernels.sum_less(sizes, self.k) * qi_count
        return loss + penalty

    # -- GA operators --------------------------------------------------------------

    def _crossover(
        self, a: _Chromosome, b: _Chromosome, rng: random.Random
    ) -> _Chromosome:
        """Gene-block uniform crossover; numeric bitstrings mix with a
        single-point cut (Lunacek-style boundary-respecting merge),
        categorical levels are inherited whole so hierarchy feasibility is
        preserved by construction."""
        genes: list[_NumericGene | _CategoricalGene] = []
        for gene_a, gene_b in zip(a.genes, b.genes):
            if isinstance(gene_a, _NumericGene):
                assert isinstance(gene_b, _NumericGene)
                splits = list(gene_a.splits)
                if splits:
                    cut = rng.randrange(len(splits) + 1)
                    splits[cut:] = gene_b.splits[cut:]
                genes.append(_NumericGene(gene_a.attribute, splits))
            else:
                assert isinstance(gene_b, _CategoricalGene)
                chosen = gene_a if rng.random() < 0.5 else gene_b
                genes.append(_CategoricalGene(chosen.attribute, chosen.level))
        return _Chromosome(genes)

    def _mutate(
        self, chromosome: _Chromosome, plan: list, rng: random.Random
    ) -> None:
        for gene, (_, kind, info) in zip(chromosome.genes, plan):
            if isinstance(gene, _NumericGene):
                for position in range(len(gene.splits)):
                    if rng.random() < self.mutation_rate:
                        gene.splits[position] = not gene.splits[position]
            else:
                if rng.random() < self.mutation_rate:
                    gene.level = rng.randrange(info.height + 1)

    # -- main loop --------------------------------------------------------------------

    def anonymize(
        self, dataset: Dataset, hierarchies: Mapping[str, Hierarchy]
    ) -> Anonymization:
        if len(dataset) < self.k:
            raise AlgorithmError(
                f"dataset of {len(dataset)} rows cannot be {self.k}-anonymized"
            )
        rng = random.Random(self.seed)
        plan = self._attribute_plan(dataset, hierarchies)
        population = [
            self._random_chromosome(plan, rng) for _ in range(self.population_size)
        ]
        scores = [
            self._fitness(dataset, plan, hierarchies, member) for member in population
        ]

        def tournament_pick() -> _Chromosome:
            contenders = [
                rng.randrange(len(population)) for _ in range(self.tournament)
            ]
            winner = min(contenders, key=lambda i: scores[i])
            return population[winner]

        for _ in range(self.generations):
            # Stable sort: elitism ties resolve by population order in both
            # backends (np.argsort's default introsort is not stable).
            order = sorted(range(len(scores)), key=scores.__getitem__)
            next_population = [population[i].copy() for i in order[: self.elitism]]
            while len(next_population) < self.population_size:
                child = self._crossover(tournament_pick(), tournament_pick(), rng)
                self._mutate(child, plan, rng)
                next_population.append(child)
            population = next_population
            scores = [
                self._fitness(dataset, plan, hierarchies, member)
                for member in population
            ]

        best = population[min(range(len(scores)), key=scores.__getitem__)]
        return self._materialize(dataset, plan, best)

    def _materialize(
        self, dataset: Dataset, plan: list, chromosome: _Chromosome
    ) -> Anonymization:
        """The release of ``chromosome``: rows of classes below k are
        suppressed, and every row is labelled by the identity of its
        released cells, the suppressed ones by one all-``SUPPRESSED`` row."""
        columns = self._decode_columns(dataset, plan, chromosome)
        rows = list(zip(*(columns[attribute] for attribute, _, _ in plan)))
        counts: dict[Any, int] = {}
        for cells in rows:
            counts[cells] = counts.get(cells, 0) + 1
        suppressed_row = (SUPPRESSED,) * len(plan)
        suppressed = []
        label_of: dict[tuple[int, ...], int] = {}
        class_rows: list[tuple[Any, ...]] = []
        labels = []
        for row_index, cells in enumerate(rows):
            if counts[cells] < self.k:
                suppressed.append(row_index)
                cells = suppressed_row
            label = label_of.setdefault(tuple(map(id, cells)), len(class_rows))
            if label == len(class_rows):
                class_rows.append(cells)
            labels.append(label)
        return released_from_classes(
            dataset, labels, class_rows, suppressed=suppressed, name=self.name
        )
