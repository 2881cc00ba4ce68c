"""Tests for the disclosure control algorithms.

Uses the 300-row Adult sample plus the paper's 10-row table.  Every
k-guaranteeing algorithm is checked for the invariant it promises; μ-Argus
is checked for its *documented* failure to guarantee it.
"""

import pytest

from repro.anonymize.algorithms import (
    AlgorithmError,
    Datafly,
    GeneticAnonymizer,
    Incognito,
    Mondrian,
    MuArgus,
    OptimalLattice,
    RecodingWorkspace,
    Samarati,
    discernibility_cost,
    loss_metric_cost,
)
from repro.datasets import paper_tables
from repro.utility import general_loss


def paper_hierarchies():
    return {
        "Zip Code": paper_tables.zip_hierarchy(),
        "Age": paper_tables.age_hierarchy(10, 5),
        "Marital Status": paper_tables.marital_hierarchy(),
    }


def achieved_k(anonymization):
    """k over non-suppressed rows (suppressed rows form their own class)."""
    classes = anonymization.equivalence_classes
    sizes = [
        classes.size_of(i)
        for i in range(len(anonymization))
        if i not in anonymization.suppressed
    ]
    return min(sizes) if sizes else 0


class TestRecodingWorkspace:
    def test_group_sizes_full_qi(self, table1):
        workspace = RecodingWorkspace(table1, paper_hierarchies())
        counts = workspace.group_sizes((1, 1, 1))
        assert sorted(counts.values()) == [3, 3, 4]

    def test_group_sizes_projection(self, table1):
        workspace = RecodingWorkspace(table1, paper_hierarchies())
        counts = workspace.group_sizes((1,), attributes=["Zip Code"])
        assert sorted(counts.values()) == [3, 3, 4]

    def test_violating_rows(self, table1):
        workspace = RecodingWorkspace(table1, paper_hierarchies())
        assert workspace.violating_rows((1, 1, 1), 4) == [0, 1, 2, 3, 7, 8]

    def test_satisfies_k(self, table1):
        workspace = RecodingWorkspace(table1, paper_hierarchies())
        assert workspace.satisfies_k((1, 1, 1), 3)
        assert not workspace.satisfies_k((1, 1, 1), 4)
        assert workspace.satisfies_k((1, 1, 1), 4, max_suppressed=6)

    def test_node_loss_monotone(self, table1):
        workspace = RecodingWorkspace(table1, paper_hierarchies())
        assert workspace.node_loss((0, 0, 0)) == 0.0
        assert workspace.node_loss((1, 1, 1)) < workspace.node_loss((2, 1, 1))

    def test_apply_suppresses_small_classes(self, table1):
        workspace = RecodingWorkspace(table1, paper_hierarchies())
        anonymization = workspace.apply((0, 0, 0), k=2)
        # Raw table: zip+age+marital are unique per row except none; all
        # rows violate k=2 and get suppressed, forming one class of 10.
        assert anonymization.k() == 10


class TestDatafly:
    def test_achieves_k_on_adult(self, adult_small, adult_h):
        anonymization = Datafly(5).anonymize(adult_small, adult_h)
        assert achieved_k(anonymization) >= 5
        assert anonymization.suppression_fraction() <= 0.02 + 1e-9

    def test_paper_table(self, table1):
        anonymization = Datafly(3, suppression_limit=0.0).anonymize(
            table1, paper_hierarchies()
        )
        assert achieved_k(anonymization) >= 3

    def test_invalid_k(self):
        with pytest.raises(AlgorithmError):
            Datafly(0)

    def test_invalid_suppression(self):
        with pytest.raises(AlgorithmError):
            Datafly(2, suppression_limit=1.5)


class TestSamarati:
    def test_achieves_k(self, adult_small, adult_h):
        anonymization = Samarati(5).anonymize(adult_small, adult_h)
        assert achieved_k(anonymization) >= 5

    def test_minimal_height_is_minimal(self, adult_small, adult_h):
        algorithm = Samarati(5)
        workspace = RecodingWorkspace(adult_small, adult_h)
        height = algorithm.minimal_height(workspace)
        budget = int(algorithm.suppression_limit * len(adult_small))
        assert height > 0
        below = height - 1
        assert not any(
            workspace.satisfies_k(node, 5, budget)
            for node in workspace.lattice.nodes_at_height(below)
        )

    def test_k_minimal_nodes_all_satisfy(self, adult_small, adult_h):
        algorithm = Samarati(5)
        nodes = algorithm.k_minimal_nodes(adult_small, adult_h)
        workspace = RecodingWorkspace(adult_small, adult_h)
        budget = int(algorithm.suppression_limit * len(adult_small))
        assert nodes
        assert all(workspace.satisfies_k(node, 5, budget) for node in nodes)

    def test_impossible_k_raises(self, table1):
        with pytest.raises(AlgorithmError, match="no generalization"):
            Samarati(11, suppression_limit=0.0).anonymize(
                table1, paper_hierarchies()
            )


class TestIncognito:
    def test_achieves_k(self, adult_small, adult_h):
        anonymization = Incognito(5, suppression_limit=0.02).anonymize(
            adult_small, adult_h
        )
        assert achieved_k(anonymization) >= 5

    def test_all_nodes_are_k_anonymous(self, table1):
        algorithm = Incognito(3)
        hierarchies = paper_hierarchies()
        nodes = algorithm.k_anonymous_nodes(table1, hierarchies)
        workspace = RecodingWorkspace(table1, hierarchies)
        assert nodes
        assert all(workspace.satisfies_k(node, 3, 0) for node in nodes)

    def test_completeness_against_exhaustive(self, table1):
        # Incognito must find exactly the k-anonymous nodes an exhaustive
        # scan finds.
        hierarchies = paper_hierarchies()
        workspace = RecodingWorkspace(table1, hierarchies)
        exhaustive = sorted(
            node
            for node in workspace.lattice.nodes()
            if workspace.satisfies_k(node, 3, 0)
        )
        assert Incognito(3).k_anonymous_nodes(table1, hierarchies) == exhaustive

    def test_minimal_nodes_are_minimal(self, table1):
        hierarchies = paper_hierarchies()
        algorithm = Incognito(3)
        minimal = algorithm.minimal_nodes(table1, hierarchies)
        workspace = RecodingWorkspace(table1, hierarchies)
        for node in minimal:
            assert not any(
                workspace.satisfies_k(predecessor, 3, 0)
                for predecessor in workspace.lattice.predecessors(node)
            )

    def test_impossible_k_raises(self, table1):
        with pytest.raises(AlgorithmError):
            Incognito(11).anonymize(table1, paper_hierarchies())


class TestMondrian:
    @pytest.mark.parametrize("relaxed", [False, True])
    def test_achieves_k(self, adult_small, adult_h, relaxed):
        anonymization = Mondrian(5, relaxed=relaxed).anonymize(
            adult_small, adult_h
        )
        assert anonymization.k() >= 5
        assert not anonymization.suppressed

    def test_partitions_cover_all_rows(self, adult_small):
        partitions = Mondrian(10).partitions(adult_small)
        seen = sorted(row for partition in partitions for row in partition)
        assert seen == list(range(len(adult_small)))

    def test_partitions_at_least_k(self, adult_small):
        partitions = Mondrian(10).partitions(adult_small)
        assert all(len(partition) >= 10 for partition in partitions)

    def test_relaxed_partitions_bounded(self, adult_small):
        # Relaxed partitioning can always split a partition of >= 2k rows,
        # so every final partition has fewer than 2k members.
        relaxed = Mondrian(5, relaxed=True).partitions(adult_small)
        assert all(5 <= len(partition) < 10 for partition in relaxed)

    def test_mondrian_utility_beats_full_domain(self, adult_small, adult_h):
        # The multidimensional headline result: Mondrian loses less
        # information than single-dimensional full-domain recoding.
        mondrian = Mondrian(5).anonymize(adult_small, adult_h)
        datafly = Datafly(5).anonymize(adult_small, adult_h)
        assert general_loss(mondrian, adult_h) < general_loss(datafly, adult_h)

    def test_too_small_dataset_rejected(self, table1, adult_h):
        with pytest.raises(ValueError):
            Mondrian(11).anonymize(table1, None)


class TestOptimal:
    def test_achieves_k(self, table1):
        anonymization = OptimalLattice(3, suppression_limit=0.0).anonymize(
            table1, paper_hierarchies()
        )
        assert achieved_k(anonymization) >= 3

    def test_optimal_beats_heuristics_on_loss(self, adult_small, adult_h):
        optimal = OptimalLattice(5, suppression_limit=0.0).anonymize(
            adult_small, adult_h
        )
        datafly = Datafly(5, suppression_limit=0.0).anonymize(adult_small, adult_h)
        assert general_loss(optimal, adult_h) <= general_loss(datafly, adult_h) + 1e-12

    def test_frontier_matches_exhaustive_optimum(self, table1):
        # With no suppression, the frontier search must equal a brute-force
        # scan of the entire lattice.
        hierarchies = paper_hierarchies()
        workspace = RecodingWorkspace(table1, hierarchies)
        algorithm = OptimalLattice(3, suppression_limit=0.0)
        brute = min(
            (
                node
                for node in workspace.lattice.nodes()
                if workspace.satisfies_k(node, 3, 0)
            ),
            key=lambda node: loss_metric_cost(workspace, node, 3),
        )
        chosen = algorithm.anonymize(table1, hierarchies)
        chosen_node = tuple(
            chosen.levels[name] for name in workspace.qi_names
        )
        assert loss_metric_cost(workspace, chosen_node, 3) == pytest.approx(
            loss_metric_cost(workspace, brute, 3)
        )

    def test_discernibility_cost_variant(self, table1):
        anonymization = OptimalLattice(
            3, suppression_limit=0.0, cost=discernibility_cost
        ).anonymize(table1, paper_hierarchies())
        assert achieved_k(anonymization) >= 3

    def test_impossible_k_raises(self, table1):
        with pytest.raises(AlgorithmError):
            OptimalLattice(11, suppression_limit=0.0).anonymize(
                table1, paper_hierarchies()
            )


class TestGenetic:
    def test_achieves_k_via_suppression(self, table1):
        algorithm = GeneticAnonymizer(
            2, population_size=16, generations=10, seed=3
        )
        anonymization = algorithm.anonymize(table1, paper_hierarchies())
        assert achieved_k(anonymization) >= 2 or len(anonymization.suppressed) > 0
        classes = anonymization.equivalence_classes
        for row in range(len(anonymization)):
            if row not in anonymization.suppressed:
                assert classes.size_of(row) >= 2

    def test_deterministic_per_seed(self, table1):
        def run():
            return GeneticAnonymizer(
                2, population_size=12, generations=5, seed=9
            ).anonymize(table1, paper_hierarchies())

        assert run().released.rows == run().released.rows

    def test_different_seeds_may_differ(self, adult_small, adult_h):
        sample = adult_small.head(60)
        a = GeneticAnonymizer(3, population_size=10, generations=4, seed=1).anonymize(
            sample, adult_h
        )
        b = GeneticAnonymizer(3, population_size=10, generations=4, seed=2).anonymize(
            sample, adult_h
        )
        # No assertion of inequality (could coincide), but both valid.
        for anonymization in (a, b):
            classes = anonymization.equivalence_classes
            for row in range(len(anonymization)):
                if row not in anonymization.suppressed:
                    assert classes.size_of(row) >= 3

    def test_invalid_parameters(self):
        with pytest.raises(AlgorithmError):
            GeneticAnonymizer(2, population_size=1)
        with pytest.raises(AlgorithmError):
            GeneticAnonymizer(2, generations=0)
        with pytest.raises(AlgorithmError):
            GeneticAnonymizer(2, mutation_rate=2.0)
        with pytest.raises(AlgorithmError):
            GeneticAnonymizer(2, elitism=40, population_size=40)

    def test_dataset_smaller_than_k_rejected(self, table1):
        with pytest.raises(AlgorithmError):
            GeneticAnonymizer(11).anonymize(table1, paper_hierarchies())


class TestMuArgus:
    def test_combinations_up_to_dimension_safe(self, adult_small, adult_h):
        algorithm = MuArgus(5, max_combination_size=2, suppression_limit=0.0)
        anonymization = algorithm.anonymize(adult_small, adult_h)
        # Within the checked dimension, every surviving combination must be
        # safe: rebuild 2-combination frequencies over non-suppressed rows.
        import itertools

        released = anonymization.released
        qi = released.schema.quasi_identifier_names
        keep = [
            i for i in range(len(released)) if i not in anonymization.suppressed
        ]
        for pair in itertools.combinations(qi, 2):
            counts = {}
            for i in keep:
                key = (released.value(i, pair[0]), released.value(i, pair[1]))
                counts[key] = counts.get(key, 0) + 1
            assert all(count >= 5 for count in counts.values())

    def test_documented_failure_to_guarantee_k(self, adult_small, adult_h):
        # The known μ-Argus shortcoming (Sweeney [16]): checking only small
        # combinations does not give k-anonymity over the full QI.
        anonymization = MuArgus(5, max_combination_size=2).anonymize(
            adult_small, adult_h
        )
        assert achieved_k(anonymization) < 5

    def test_higher_dimension_closes_gap_on_paper_table(self, table1):
        hierarchies = paper_hierarchies()
        full = MuArgus(
            3, max_combination_size=3, suppression_limit=0.0
        ).anonymize(table1, hierarchies)
        assert achieved_k(full) >= 3

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            MuArgus(3, max_combination_size=0)


def generalized_column(workspace, name, level):
    """The row plane's ``name`` column generalized to ``level``."""
    hierarchy = workspace.hierarchies[name]
    return [hierarchy.generalize(value, level) for value in workspace.dataset.column(name)]


class TestVectorizedGrouping:
    """The numpy fast path must agree exactly with the dict-based
    frequency sets."""

    def test_class_size_vector_matches_group_sizes(self, adult_small, adult_h):
        workspace = RecodingWorkspace(adult_small, adult_h)
        import random

        rng = random.Random(3)
        heights = workspace.lattice.heights
        for _ in range(10):
            node = tuple(rng.randrange(h + 1) for h in heights)
            counts = workspace.group_sizes(node)
            columns = [
                generalized_column(workspace, name, level)
                for name, level in zip(workspace.qi_names, node)
            ]
            expected = [counts[key] for key in zip(*columns)]
            assert workspace.class_size_vector(node).tolist() == expected

    def test_violations_consistent(self, adult_small, adult_h):
        workspace = RecodingWorkspace(adult_small, adult_h)
        node = (2, 1, 1, 1, 0, 0, 1)
        rows = workspace.violating_rows(node, 5)
        assert workspace.violation_count(node, 5) == len(rows)
        sizes = workspace.class_size_vector(node)
        assert all(sizes[row] < 5 for row in rows)

    def test_code_column_cached_and_dense(self, adult_small, adult_h):
        workspace = RecodingWorkspace(adult_small, adult_h)
        codes, count = workspace.code_column("age", 2)
        again, _ = workspace.code_column("age", 2)
        assert codes is again
        assert min(codes) == 0
        assert max(codes) == count - 1

    def test_projection_grouping(self, adult_small, adult_h):
        workspace = RecodingWorkspace(adult_small, adult_h)
        sizes = workspace.class_size_vector((1,), attributes=["sex"])
        counts = workspace.group_sizes((1,), attributes=["sex"])
        assert sum(sizes) == sum(v * v for v in counts.values())
