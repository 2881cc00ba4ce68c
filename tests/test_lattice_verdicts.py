"""Oracles for the lattice searches' k-anonymity verdicts.

``RecodingWorkspace.violation_count`` (behind ``satisfies_k``) decides k
from a node's class sizes alone, counted straight from the packed keys.
These tests pin that verdict on small random tables, for every node of
every Incognito projection, against two oracles:

* the brute-force group-by check of a k-anonymity test (group the
  generalized QI tuples, sum the sizes of the groups below k);
* the label-based count the workspace used before, kept here: build the
  node's row partition and count rows whose class is below k.

The releases of Datafly, Samarati, Incognito and μ-Argus must equal those
of that label-based path, and the sizes-only costs (DM, the NSGA-II
objectives, the cut and genetic penalties) must equal their values from
the full grouping — they are integer sums, exact in float.

The class-size histograms are shared by every workspace on one table
object: searches run in sequence on one table must release what each
releases alone on a fresh copy, and every k must read the histogram
counted once at another k.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
import threading
from collections import Counter
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.anonymize.algorithms import (
    AlgorithmError,
    Datafly,
    GeneticAnonymizer,
    Incognito,
    MuArgus,
    OptimalLattice,
    RecodingWorkspace,
    Samarati,
    discernibility_cost,
    loss_metric_cost,
)
from repro.anonymize.algorithms import (
    cuts,
    datafly,
    genetic,
    incognito,
    muargus,
    samarati,
)
from repro.anonymize.algorithms.cuts import CutEvaluator, bottom_cuts, top_cuts
from repro.anonymize.engine import recode
from repro.datasets.adult import adult_dataset, adult_hierarchies
from repro.datasets.dataset import Dataset
from repro.datasets.schema import AttributeKind, Schema, quasi_identifier, sensitive
from repro.datasets.synthetic import skewed_dataset, synthetic_hierarchies
from repro.hierarchy.categorical import TaxonomyHierarchy
from repro.hierarchy.lattice import Lattice
from repro.hierarchy.numeric import Banding, IntervalHierarchy
from repro.kernels import HAVE_NUMPY, active, force_backend
from repro.moo.nsga2 import privacy_rank_objective, weighted_k_objective
from repro.obs import Observation, observing

SCHEMA = Schema.of(
    quasi_identifier("num", AttributeKind.NUMERIC),
    quasi_identifier("cat", AttributeKind.CATEGORICAL),
    quasi_identifier("pair", AttributeKind.CATEGORICAL),
    sensitive("sens", AttributeKind.CATEGORICAL),
)
QI_NAMES = ("num", "cat", "pair")
HIERARCHIES = {
    "num": IntervalHierarchy("num", [Banding(5), Banding(20)], (0, 100)),
    "cat": TaxonomyHierarchy(
        "cat",
        {
            "a": ("left",), "b": ("left",), "c": ("left",),
            "d": ("right",), "e": ("right",), "f": ("right",),
        },
    ),
    "pair": TaxonomyHierarchy(
        "pair", {"p": ("pq",), "q": ("pq",), "r": ("rs",), "s": ("rs",)}
    ),
}
BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])
KS = range(1, 7)


@st.composite
def datasets(draw, num_max=100):
    size = draw(st.integers(min_value=1, max_value=30))
    rows = [
        (
            draw(st.integers(min_value=0, max_value=num_max)),
            draw(st.sampled_from("abcdef")),
            draw(st.sampled_from("pqrs")),
            draw(st.sampled_from(["s1", "s2"])),
        )
        for _ in range(size)
    ]
    return Dataset(SCHEMA, rows)


common = settings(
    max_examples=25, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


def projections():
    """Every QI subset Incognito walks, smallest first."""
    for size in range(1, len(QI_NAMES) + 1):
        yield from itertools.combinations(QI_NAMES, size)


def group_by_sizes(data, names, node, hierarchies=HIERARCHIES):
    """Brute force: the sizes of the generalized-tuple groups at ``node``."""
    positions = [data.schema.index_of(name) for name in names]
    return Counter(
        tuple(
            hierarchies[name].generalize(row[position], level)
            for name, position, level in zip(names, positions, node)
        )
        for row in data.rows
    ).values()


def group_by_violations(data, names, node, k, hierarchies=HIERARCHIES):
    """Brute force: rows in generalized-tuple groups smaller than ``k``."""
    return sum(
        size for size in group_by_sizes(data, names, node, hierarchies) if size < k
    )


def group_by_unsafe_classes(data, names, node, k):
    """Brute force: generalized-tuple groups smaller than ``k``."""
    return sum(1 for size in group_by_sizes(data, names, node) if size < k)


def generalized_column(workspace, name, level):
    """The row plane's ``name`` column generalized to ``level``."""
    hierarchy = workspace.hierarchies[name]
    return [hierarchy.generalize(value, level) for value in workspace.dataset.column(name)]


def label_violation_count(workspace, node, k, names):
    """The label-based count: partition rows, gather each row's class size."""
    per_row = workspace.class_size_vector(node, names)
    return sum(1 for size in per_row if size < k)


class LabelWorkspace(RecodingWorkspace):
    """A workspace whose verdicts take the label-based path."""

    def violation_count(self, node, k, attributes=None):
        names = tuple(attributes) if attributes is not None else self.qi_names
        self._check_node_arity(node, names)
        return label_violation_count(self, node, k, names)


class LabelMuArgus(MuArgus):
    """μ-Argus as it matched every row's generalized tuple against the
    decoded frequency set, with its final recount after the loop."""

    def _unsafe_rows_by_attribute(self, workspace, levels):
        qi_names = workspace.qi_names
        unsafe_rows = set()
        involvement = {name: 0 for name in qi_names}
        dimension = min(self.max_combination_size, len(qi_names))
        for size in range(1, dimension + 1):
            for subset in itertools.combinations(qi_names, size):
                node = tuple(levels[name] for name in subset)
                counts = workspace.group_sizes(node, subset)
                unsafe_keys = {key for key, count in counts.items() if count < self.k}
                if not unsafe_keys:
                    continue
                columns = [
                    generalized_column(workspace, name, levels[name]) for name in subset
                ]
                for row_index, key in enumerate(zip(*columns)):
                    if key in unsafe_keys:
                        unsafe_rows.add(row_index)
                for name in subset:
                    involvement[name] += len(unsafe_keys)
        return unsafe_rows, involvement

    def anonymize(self, dataset, hierarchies):
        workspace = LabelWorkspace(dataset, hierarchies)
        levels = {name: 0 for name in workspace.qi_names}
        budget = int(self.suppression_limit * len(dataset))
        while True:
            unsafe_rows, involvement = self._unsafe_rows_by_attribute(workspace, levels)
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
            levels[max(candidates, key=lambda name: involvement[name])] += 1
        unsafe_rows, _ = self._unsafe_rows_by_attribute(workspace, levels)
        return recode(
            dataset, workspace.hierarchies, levels,
            suppress=sorted(unsafe_rows), name=self.name,
        )


def label_path():
    """Patch the lattice searches onto the label-based workspace."""
    stack = ExitStack()
    for module in (datafly, samarati, incognito, muargus):
        stack.enter_context(mock.patch.object(module, "RecodingWorkspace", LabelWorkspace))
    return stack


class GroupedKernels:
    """The active backend with ``key_sizes`` taken the long way: label
    every row with ``group``, then ``bincount`` the labels."""

    def __init__(self, kernels):
        self._kernels = kernels

    def __getattr__(self, name):
        return getattr(self._kernels, name)

    def key_sizes(self, keys, bound):
        _, labels, count = self._kernels.group(keys)
        return self._kernels.bincount(labels, count)


def release_of(algorithm, data):
    """``(rows, suppressed, levels, name)`` of a release, or the error."""
    try:
        release = algorithm.anonymize(data, HIERARCHIES)
    except AlgorithmError as error:
        return ("error", str(error))
    return (release.released.rows, release.suppressed, release.levels, release.name)


class TestViolationCountOracle:
    @common
    @given(datasets())
    def test_every_projection_node_matches_both_oracles(self, data):
        per_backend = {}
        for backend in BACKENDS:
            with force_backend(backend):
                workspace = RecodingWorkspace(data, HIERARCHIES)
                verdicts = []
                for names in projections():
                    lattice = Lattice([HIERARCHIES[name] for name in names])
                    for node in lattice.nodes():
                        sizes = workspace.class_sizes(node, names)
                        assert list(sizes) == list(
                            workspace.partition(node, names).sizes
                        ), (names, node)
                        for k in KS:
                            count = workspace.violation_count(node, k, names)
                            assert count == group_by_violations(data, names, node, k)
                            assert count == label_violation_count(
                                workspace, node, k, names
                            )
                            for budget in (0, 1, len(data) // 4, len(data)):
                                assert workspace.satisfies_k(node, k, budget, names) == (
                                    count <= budget
                                )
                            verdicts.append(count)
                        verdicts.append(active().tolist(sizes))
                per_backend[backend] = verdicts
        assert len({repr(verdicts) for verdicts in per_backend.values()}) == 1

    def test_arity_is_checked(self):
        data = Dataset(SCHEMA, [(1, "a", "p", "s1")])
        workspace = RecodingWorkspace(data, HIERARCHIES)
        with pytest.raises(ValueError):
            workspace.violation_count((0, 0), 2)


class TestReleasesMatchLabelPath:
    @common
    @given(datasets(), st.sampled_from(list(KS)), st.sampled_from([0.0, 0.1, 0.3]))
    def test_lattice_searches(self, data, k, limit):
        algorithms = [
            Datafly(k, limit),
            Samarati(k, limit),
            Incognito(k, limit),
            MuArgus(k, 2, limit),
            MuArgus(k, 1, limit),
        ]
        for backend in BACKENDS:
            with force_backend(backend):
                for algorithm in algorithms:
                    current = release_of(algorithm, data)
                    if isinstance(algorithm, MuArgus):
                        reference = LabelMuArgus(
                            k, algorithm.max_combination_size, limit
                        )
                    else:
                        reference = algorithm
                    with label_path():
                        expected = release_of(reference, data)
                    assert current == expected, (backend, algorithm.name)


class TestSizesOnlyCosts:
    @common
    @given(datasets(), st.sampled_from(list(KS)))
    def test_discernibility_and_objectives_equal_frequency_set_sums(self, data, k):
        for backend in BACKENDS:
            with force_backend(backend):
                workspace = RecodingWorkspace(data, HIERARCHIES)
                total = len(data)
                for node in workspace.lattice.nodes():
                    sizes = list(workspace.group_sizes(node).values())
                    dm = 0.0
                    for size in sizes:
                        dm += size * total if size < k else size * size
                    cost = discernibility_cost(workspace, node, k)
                    assert cost == dm and type(cost) is float
                    privacy = privacy_rank_objective(workspace, node)
                    # ``math.sqrt`` is correctly rounded; ``** 0.5`` is off by an
                    # ulp for some integer sums (8414, for one).
                    assert privacy == math.sqrt(sum(s * (total - s) ** 2 for s in sizes))
                    assert type(privacy) is float
                    weighted = weighted_k_objective(workspace, node)
                    assert weighted == -(sum(s * s for s in sizes) / total)

    @common
    @given(datasets(), st.sampled_from(list(KS)))
    def test_cut_violations_equal_grouped_count(self, data, k):
        ends = (bottom_cuts(data, HIERARCHIES), top_cuts(data, HIERARCHIES))
        for backend in BACKENDS:
            with force_backend(backend):
                for choice in itertools.product(ends, repeat=len(QI_NAMES)):
                    chosen = {name: end[name] for name, end in zip(QI_NAMES, choice)}
                    current = CutEvaluator(data, chosen).violations(k)
                    with mock.patch.object(
                        cuts, "active_kernels", lambda: GroupedKernels(active())
                    ):
                        expected = CutEvaluator(data, chosen).violations(k)
                    assert current == expected

    @common
    @given(datasets(), st.sampled_from(list(KS)), st.integers(0, 2**16))
    def test_genetic_fitness_equals_grouped_penalty(self, data, k, seed):
        algorithm = GeneticAnonymizer(k, population_size=4, generations=1, seed=seed)
        plan = algorithm._attribute_plan(data, HIERARCHIES)
        rng = random.Random(seed)
        chromosomes = [algorithm._random_chromosome(plan, rng) for _ in range(4)]
        for backend in BACKENDS:
            with force_backend(backend):
                for chromosome in chromosomes:
                    current = algorithm._fitness(data, plan, HIERARCHIES, chromosome)
                    with mock.patch.object(
                        genetic, "active_kernels", lambda: GroupedKernels(active())
                    ):
                        expected = algorithm._fitness(
                            data, plan, HIERARCHIES, chromosome
                        )
                    assert current == expected



class RecountingMuArgus(MuArgus):
    """μ-Argus as it counted every combination afresh in every round."""

    def _unsafe_rows_by_attribute(self, workspace, levels, counted=None):
        qi_names = workspace.qi_names
        unsafe_rows = set()
        involvement = {name: 0 for name in qi_names}
        dimension = min(self.max_combination_size, len(qi_names))
        for size in range(1, dimension + 1):
            for subset in itertools.combinations(qi_names, size):
                node = tuple(levels[name] for name in subset)
                unsafe_classes = sum(
                    1 for size in workspace.class_sizes(node, subset) if size < self.k
                )
                if not unsafe_classes:
                    continue
                unsafe_rows.update(workspace.violating_rows(node, self.k, subset))
                for name in subset:
                    involvement[name] += unsafe_classes
        return unsafe_rows, involvement


class CountingWorkspace(RecodingWorkspace):
    """A workspace that counts its class-size passes and k verdicts."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sizes_calls = Counter()
        self.verdicts = Counter()

    def class_sizes(self, node, attributes=None):
        self.sizes_calls[(tuple(attributes or self.qi_names), tuple(node))] += 1
        return super().class_sizes(node, attributes)

    def satisfies_k(self, node, k, max_suppressed=0, attributes=None):
        self.verdicts[tuple(node)] += 1
        return super().satisfies_k(node, k, max_suppressed, attributes)


class TestVerdictReuse:
    @common
    @given(datasets(), st.sampled_from(list(KS)), st.sampled_from([0.0, 0.1, 0.3]))
    def test_muargus_counts_each_combination_node_once(self, data, k, limit):
        for dimension in (1, 2, 3):
            workspaces = []

            def counting(*args):
                workspaces.append(CountingWorkspace(*args))
                return workspaces[-1]

            with mock.patch.object(muargus, "RecodingWorkspace", counting):
                current = release_of(MuArgus(k, dimension, limit), data)
            calls = workspaces[0].sizes_calls
            assert set(calls.values()) == {1}
            assert current == release_of(
                RecountingMuArgus(k, dimension, limit), data
            )

    @common
    @given(datasets(), st.sampled_from(list(KS)), st.sampled_from([0.0, 0.1, 0.3]))
    def test_samarati_decides_each_node_once(self, data, k, limit):
        workspace = CountingWorkspace(data, HIERARCHIES)
        try:
            nodes = Samarati(k, limit)._k_minimal_nodes(workspace)
        except AlgorithmError:
            nodes = None
        assert set(workspace.verdicts.values()) == {1}
        if nodes is not None:
            budget = int(limit * len(data))
            height = sum(nodes[0])
            assert nodes == [
                node
                for node in workspace.lattice.nodes_at_height(height)
                if workspace.violation_count(node, k) <= budget
            ]


    @pytest.mark.parametrize("rows, k", [(4000, 2), (7000, 5)])
    def test_samarati_counts_few_verdicts_on_adult(self, rows, k):
        """The height binary search counted 1,170 (4k rows, k=2) and 742
        (7k rows, k=5) verdicts here; the descent counts at most 450."""
        workspace = CountingWorkspace(adult_dataset(rows, seed=42), adult_hierarchies())
        Samarati(k)._k_minimal_nodes(workspace)
        assert set(workspace.verdicts.values()) == {1}
        assert sum(workspace.verdicts.values()) <= 450

    def test_inferred_verdicts_are_counted(self):
        data = adult_dataset(300, seed=42)

        def observed(search):
            workspace = CountingWorkspace(data, adult_hierarchies())
            observation = Observation()
            with observing(observation):
                search(workspace)
            counters = observation.metrics.snapshot()["counters"]
            inferred = counters.get("workspace.verdict.inferred", 0)
            return inferred, sum(workspace.verdicts.values()), len(workspace.lattice)

        # The sweep decides every lattice node: each is counted or inferred.
        inferred, counted, nodes = observed(OptimalLattice(5, 0.0)._sweep)
        assert inferred + counted == nodes and inferred > 0
        assert observed(Samarati(5)._k_minimal_nodes)[0] > 0


def fresh_copy(data):
    """The same rows as a new table object, whose verdict store is empty."""
    return Dataset(data.schema, data.rows)


#: ``HIERARCHIES`` with a ``num`` chain that is not nested: a band of 5
#: (say (5, 10]) straddles two bands of 7 ((0, 7] and (7, 14]).
NON_NESTED = {
    **HIERARCHIES,
    "num": IntervalHierarchy("num", [Banding(5), Banding(7)], (0, 100)),
}
VARIANTS = {"nested": HIERARCHIES, "non-nested": NON_NESTED}


def brute_force_satisfying(data, hierarchies, k, budget):
    """Every lattice node whose brute-force violation count fits ``budget``."""
    lattice = Lattice([hierarchies[name] for name in QI_NAMES])
    return {
        node
        for node in lattice.nodes()
        if group_by_violations(data, QI_NAMES, node, k, hierarchies) <= budget
    }


class TestFullLatticeOracles:
    """The full-domain searches against the brute-force satisfying set of
    the whole lattice, on nested and non-nested level tables."""

    @common
    @given(
        datasets(num_max=9),
        st.sampled_from(list(KS)),
        st.sampled_from([0.0, 0.1, 0.3]),
        st.sampled_from(sorted(VARIANTS)),
    )
    # Bands of 5 hold 3 rows each, bands of 7 hold 5 and 1: (1, 1, 2)
    # satisfies k=3 and its generalization (2, 1, 2) does not.
    @example(
        Dataset(
            SCHEMA,
            [
                (1, "a", "p", "s1"), (2, "b", "q", "s1"), (3, "c", "r", "s1"),
                (6, "d", "s", "s1"), (7, "e", "p", "s1"), (8, "f", "q", "s1"),
            ],
        ),
        3,
        0.0,
        "non-nested",
    )
    def test_searches_equal_brute_force(self, data, k, limit, variant):
        hierarchies = VARIANTS[variant]
        budget = int(limit * len(data))
        lattice = Lattice([hierarchies[name] for name in QI_NAMES])
        satisfying = brute_force_satisfying(data, hierarchies, k, budget)
        heights = range(lattice.max_height + 1)
        held = {
            height
            for height in heights
            if not satisfying.isdisjoint(lattice.nodes_at_height(height))
        }
        # Samarati's contract: the lowest height such that every stratum
        # from it to the top holds a satisfying node.
        contract = min(
            (h for h in heights if held.issuperset(range(h, lattice.max_height + 1))),
            default=None,
        )
        k_minimal = (
            None
            if contract is None
            else [n for n in lattice.nodes_at_height(contract) if n in satisfying]
        )
        frontier = [
            node
            for node in sorted(satisfying, key=lambda node: (sum(node), node))
            if satisfying.isdisjoint(lattice.predecessors(node))
        ]
        for backend in BACKENDS:
            with force_backend(backend):
                workspace = RecodingWorkspace(fresh_copy(data), hierarchies)
                nested = len(
                    list(workspace.nested_neighbors(lattice.bottom, upward=True))
                ) == len(QI_NAMES)
                if nested:
                    assert contract == min(held, default=None)
                try:
                    nodes = Samarati(k, limit)._k_minimal_nodes(workspace)
                except AlgorithmError:
                    nodes = None
                assert nodes == k_minimal, backend
                assert Incognito(k, limit).k_anonymous_nodes(
                    fresh_copy(data), hierarchies
                ) == sorted(satisfying), backend
                optimal = OptimalLattice(k, limit)
                swept = optimal._sweep(RecodingWorkspace(fresh_copy(data), hierarchies))
                assert swept == (frontier, satisfying), backend
                if nested and satisfying:
                    release = optimal.anonymize(fresh_copy(data), hierarchies)
                    chosen = tuple(release.levels[name] for name in QI_NAMES)

                    def cost(node):
                        return loss_metric_cost(workspace, node, k)

                    assert cost(chosen) == min(map(cost, satisfying)), backend

    def test_samarati_stops_above_the_first_failing_stratum(self):
        """Stratum 5 holds a satisfying node, stratum 6 none: the verdicts
        are not monotone, and the contract's answer is the top."""
        rows = [
            (3, "e", "p", "s1"), (7, "f", "q", "s1"), (8, "b", "s", "s1"),
            (7, "a", "r", "s1"), (4, "b", "q", "s1"), (5, "b", "q", "s1"),
        ]
        data = Dataset(SCHEMA, rows)
        lattice = Lattice([NON_NESTED[name] for name in QI_NAMES])
        satisfying = brute_force_satisfying(data, NON_NESTED, 3, 0)
        held = [
            not satisfying.isdisjoint(lattice.nodes_at_height(height))
            for height in range(lattice.max_height + 1)
        ]
        assert held[-3:] == [True, False, True]
        assert Samarati(3, 0.0).k_minimal_nodes(data, NON_NESTED) == [lattice.top]

    def test_skewed_table_infers_nothing_across_non_nested_attributes(self):
        """``x`` and ``y`` are not nested on this table; inferring along
        them marked two nodes that are not 2-anonymous."""
        data = skewed_dataset(200, 1.0, seed=2)
        hierarchies = synthetic_hierarchies()
        names = data.schema.quasi_identifier_names
        lattice = Lattice([hierarchies[name] for name in names])
        satisfying = {
            node
            for node in lattice.nodes()
            if group_by_violations(data, names, node, 2, hierarchies) == 0
        }
        assert Incognito(2, 0.0).k_anonymous_nodes(data, hierarchies) == sorted(
            satisfying
        )
        _, swept = OptimalLattice(2, 0.0)._sweep(RecodingWorkspace(data, hierarchies))
        assert swept == satisfying


class TestSharedVerdictStore:
    """Every workspace on one table object reads one class-size store."""

    @common
    @given(datasets(), st.sampled_from(list(KS)), st.sampled_from([0.0, 0.1, 0.3]))
    def test_searches_in_sequence_equal_each_search_alone(self, data, k, limit):
        for backend in BACKENDS:
            with force_backend(backend):
                shared = fresh_copy(data)
                for algorithm in (
                    Datafly(k, limit),
                    Samarati(k, limit),
                    Incognito(k, limit),
                    MuArgus(k, 2, limit),
                    Samarati(k + 1, limit),
                    Incognito(k + 1, limit),
                ):
                    alone = release_of(algorithm, fresh_copy(data))
                    assert release_of(algorithm, shared) == alone, (
                        backend, algorithm.name,
                    )

    @common
    @given(datasets(), st.integers(0, len(KS) - 1))
    def test_every_k_reads_the_histogram_first_counted_at_another(self, data, shift):
        ks = list(KS)
        for backend in BACKENDS:
            with force_backend(backend):
                workspace = CountingWorkspace(fresh_copy(data), HIERARCHIES)
                nodes = 0
                for names in projections():
                    lattice = Lattice([HIERARCHIES[name] for name in names])
                    for index, node in enumerate(lattice.nodes()):
                        nodes += 1
                        start = (shift + index) % len(ks)
                        for k in ks[start:] + ks[:start]:
                            assert workspace.violation_count(
                                node, k, names
                            ) == group_by_violations(data, names, node, k)
                            assert workspace.unsafe_class_count(
                                node, k, names
                            ) == group_by_unsafe_classes(data, names, node, k)
                calls = workspace.sizes_calls
                assert len(calls) == nodes
                assert set(calls.values()) == {1}

    def test_threads_racing_on_one_table_agree(self):
        """Workspaces on one table in several threads may count a node
        twice, never answer it wrong."""
        data = Dataset(
            SCHEMA,
            [(n * 7 % 101, "abcdef"[n % 6], "pqrs"[n % 4], "s1") for n in range(60)],
        )
        expected = {
            (names, node, k): group_by_violations(data, names, node, k)
            for names in projections()
            for node in Lattice([HIERARCHIES[name] for name in names]).nodes()
            for k in KS
        }
        shared = fresh_copy(data)
        answers = [{} for _ in range(6)]

        def sweep(answer):
            workspace = RecodingWorkspace(shared, HIERARCHIES)
            for names, node, k in expected:
                answer[(names, node, k)] = workspace.violation_count(node, k, names)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sweep, args=(a,)) for a in answers]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(answer == expected for answer in answers)
