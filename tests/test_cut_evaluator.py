"""Ground truth for the cut evaluator.

``CutEvaluator`` scores cut recodings over interned codes: each trial maps
the distinct values of one attribute, groups with the kernel layer and sums
losses over a per-distinct table.  The row-by-row implementations it
replaced live here as the reference oracle, together with the search loops
of Top-Down Specialization and Bottom-Up Generalization written over that
oracle.  Small random tables — taxonomy, interval and masking hierarchies,
a numeric column mixing ``int`` and ``float`` — are driven through both
kernel backends, and every answer must be *equal*: violations, total
loss with ``==`` (not ``approx``), the chosen cuts, the released cells
(compared by ``repr``, so ``7`` released as ``7.0`` or ``-0.0`` as ``0.0``
shows) and the error an uncovered value raises.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.anonymize.algorithms import (
    BottomUpGeneralization,
    TopDownSpecialization,
)
from repro.anonymize.algorithms.cuts import (
    CutError,
    LevelCut,
    NumericSplitCut,
    TaxonomyCut,
    apply_cuts,
    bottom_cuts,
    cut_total_loss,
    cut_violations,
    top_cuts,
)
from repro.anonymize.engine import _compact
from repro.datasets import Dataset, adult_dataset, adult_hierarchies, paper_tables
from repro.datasets.schema import (
    AttributeKind,
    Schema,
    quasi_identifier,
    sensitive,
)
from repro.hierarchy import HierarchyError, TaxonomyHierarchy
from repro.hierarchy.masking import MaskingHierarchy
from repro.hierarchy.numeric import Banding, IntervalHierarchy
from repro.kernels import HAVE_NUMPY, force_backend
from repro.obs import Observation, observing
from tests.test_mondrian_oracle import AGES as M_AGES
from tests.test_mondrian_oracle import CODES as M_CODES
from tests.test_mondrian_oracle import DISEASES as M_DISEASES
from tests.test_mondrian_oracle import ZIPS as M_ZIPS
from tests.test_mondrian_oracle import schema_for as mondrian_schema

BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])

ZIPS = ("130", "131", "138", "142", "147", "250")
STATUSES = ("a1", "a2", "b1", "b2", "b3", "c")
#: Ints and floats, including floats equal to an int (7 and 7.0) and the
#: two signed zeros.
AGES = (0, 0.0, -0.0, 3, 7, 7.0, 12, 12.5, 19, 21.25, 30, 33.5, 40, 40.0)
BOUNDS = (0.0, 40.0)
#: Three-character codes as numbers, beside equal values whose str() is
#: not three characters long (7 beside 7.0, True and 1 beside 1.0).
CODES = (100, 250, 1.5, 2.5, 7.0, 7, 1.0, True, 1)

SCHEMA = Schema.of(
    quasi_identifier("zip", AttributeKind.STRING),
    quasi_identifier("age", AttributeKind.NUMERIC),
    sensitive("disease"),
    quasi_identifier("status", AttributeKind.CATEGORICAL),
)


CODE_SCHEMA = Schema.of(
    quasi_identifier("code", AttributeKind.NUMERIC), sensitive("disease")
)


def hierarchies():
    return {
        "zip": MaskingHierarchy("zip", 3, domain=ZIPS),
        "age": IntervalHierarchy(
            "age", [Banding(5.0), Banding(10.0, 5.0)], BOUNDS
        ),
        "status": TaxonomyHierarchy(
            "status",
            {
                "a1": ("A", "AB"),
                "a2": ("A", "AB"),
                "b1": ("B", "AB"),
                "b2": ("B", "AB"),
                "b3": ("B", "AB"),
                # A group label aliasing its single leaf.
                "c": ("c", "C"),
            },
        ),
    }


rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(ZIPS),
        st.sampled_from(AGES),
        st.sampled_from(("flu", "cold")),
        st.sampled_from(STATUSES),
    ),
    min_size=1,
    max_size=30,
)

common = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# -- the row-plane oracle ----------------------------------------------------


def oracle_released_qi(dataset, cuts):
    columns = [
        [cuts[attr].map_value(value) for value in dataset.column(attr)]
        for attr in dataset.schema.quasi_identifier_names
    ]
    return list(zip(*columns))


def oracle_violations(dataset, cuts, k):
    counts = {}
    for key in oracle_released_qi(dataset, cuts):
        counts[key] = counts.get(key, 0) + 1
    return sum(size for size in counts.values() if size < k)


def oracle_total_loss(dataset, cuts):
    total = 0.0
    for attr in dataset.schema.quasi_identifier_names:
        cut = cuts[attr]
        total += sum(cut.loss(value) for value in dataset.column(attr))
    return total


def reference_tds(algorithm, dataset, hierarchies):
    """TDS as a row-by-row loop: every trial copies the cuts and rescores
    every row of every attribute."""
    cuts = top_cuts(dataset, hierarchies)
    if algorithm.flexible_numeric:
        for attr in dataset.schema.quasi_identifier_names:
            if isinstance(hierarchies[attr], IntervalHierarchy):
                cuts[attr] = NumericSplitCut(hierarchies[attr].bounds)
    performed = 0
    while (
        algorithm.max_specializations is None
        or performed < algorithm.max_specializations
    ):
        current_loss = oracle_total_loss(dataset, cuts)
        trials = []
        for attr, cut in cuts.items():
            if isinstance(cut, NumericSplitCut):
                column = [
                    v for v in dataset.column(attr) if isinstance(v, (int, float))
                ]
                for segment in cut.specializations():
                    split = cut.split_value(segment, column)
                    if split is not None:
                        trials.append((attr, cut.specialize(split)))
            else:
                for token in cut.specializations():
                    trials.append((attr, cut.specialize(token)))
        best = None
        for attr, trial_cut in trials:
            trial = dict(cuts)
            trial[attr] = trial_cut
            if oracle_violations(dataset, trial, algorithm.k) > 0:
                continue
            gain = current_loss - oracle_total_loss(dataset, trial)
            if best is None or gain > best[0]:
                best = (gain, attr, trial_cut)
        if best is None:
            break
        cuts[best[1]] = best[2]
        performed += 1
    return cuts


def reference_bug(algorithm, dataset, hierarchies):
    """BUG as a row-by-row loop over the oracle."""
    cuts = bottom_cuts(dataset, hierarchies)
    k = algorithm.k
    while oracle_violations(dataset, cuts, k) > 0:
        current_violations = oracle_violations(dataset, cuts, k)
        current_loss = oracle_total_loss(dataset, cuts)
        best = None
        for attr, cut in cuts.items():
            for parent in cut.generalizations():
                trial = dict(cuts)
                trial[attr] = cut.generalize(parent)
                removed = current_violations - oracle_violations(
                    dataset, trial, k
                )
                added_loss = oracle_total_loss(dataset, trial) - current_loss
                score = removed / added_loss if added_loss > 0 else float(removed)
                if best is None or score > best[0]:
                    best = (score, attr, parent)
        _, attr, parent = best
        cuts[attr] = cuts[attr].generalize(parent)
    return cuts


# -- random cuts ---------------------------------------------------------------


def draw_cuts(data, hierarchies):
    """A random legal cut per QI: taxonomy cuts reached by random
    specializations, random levels, or a random numeric split cut."""
    cuts = {}
    status = TaxonomyCut(hierarchies["status"])
    for _ in range(data.draw(st.integers(0, 3))):
        options = sorted(status.specializations(), key=repr)
        if not options:
            break
        status = status.specialize(data.draw(st.sampled_from(options)))
    cuts["status"] = status
    cuts["zip"] = LevelCut(
        hierarchies["zip"], data.draw(st.integers(0, hierarchies["zip"].height))
    )
    if data.draw(st.booleans()):
        splits = data.draw(
            st.lists(st.sampled_from((2.5, 7.0, 12.0, 20.0, 33.5)), max_size=3)
        )
        cuts["age"] = NumericSplitCut(BOUNDS, tuple(splits))
    else:
        cuts["age"] = LevelCut(
            hierarchies["age"],
            data.draw(st.integers(0, hierarchies["age"].height)),
        )
    return cuts


# -- tests ---------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestEvaluatorAgainstOracle:
    @common
    @given(rows=rows_strategy, k=st.integers(1, 6), data=st.data())
    def test_violations_groups_and_loss(self, backend, rows, k, data):
        dataset = Dataset(SCHEMA, rows)
        cuts = draw_cuts(data, hierarchies())
        with force_backend(backend):
            violations = cut_violations(dataset, cuts, k)
            loss = cut_total_loss(dataset, cuts)
            release = apply_cuts(dataset, cuts, "trial")
        assert violations == oracle_violations(dataset, cuts, k)
        assert loss == oracle_total_loss(dataset, cuts)
        released = [
            release.released.quasi_identifier_tuple(row)
            for row in range(len(dataset))
        ]
        assert released == oracle_released_qi(dataset, cuts)
        assert repr(released) == repr(oracle_released_qi(dataset, cuts))
        assert release.released.column("disease") == dataset.column("disease")

    @common
    @given(
        codes=st.lists(st.sampled_from(CODES), min_size=1, max_size=20),
        level=st.integers(0, 3),
        k=st.integers(1, 4),
    )
    def test_masking_over_mixed_numbers(self, backend, codes, level, k):
        # Masking works on str(value): 7.0 masks as "7.*" while the equal 7
        # is too short and raises, so equal values of different types must
        # never share one mapping.
        dataset = Dataset(CODE_SCHEMA, [(code, "flu") for code in codes])
        cuts = {"code": LevelCut(MaskingHierarchy("code", 3), level)}

        def oracle():
            return (
                oracle_violations(dataset, cuts, k),
                oracle_total_loss(dataset, cuts),
                repr(oracle_released_qi(dataset, cuts)),
            )

        def evaluated():
            release = apply_cuts(dataset, cuts, "masked")
            return (
                cut_violations(dataset, cuts, k),
                cut_total_loss(dataset, cuts),
                repr([
                    release.released.quasi_identifier_tuple(row)
                    for row in range(len(dataset))
                ]),
            )

        try:
            expected = oracle()
        except HierarchyError as exc:
            with force_backend(backend), pytest.raises(HierarchyError) as raised:
                evaluated()
            assert str(raised.value) == str(exc)
        else:
            with force_backend(backend):
                assert evaluated() == expected

    @common
    @given(
        rows=rows_strategy,
        k=st.integers(1, 5),
        flexible=st.booleans(),
        cap=st.sampled_from((None, 1, 2)),
    )
    def test_topdown_matches_reference_loop(self, backend, rows, k, flexible, cap):
        dataset = Dataset(SCHEMA, rows)
        if len(dataset) < k:
            return
        hs = hierarchies()
        algorithm = TopDownSpecialization(
            k, max_specializations=cap, flexible_numeric=flexible
        )
        with force_backend(backend):
            cuts = algorithm.search_cuts(dataset, hs)
        assert cuts == reference_tds(algorithm, dataset, hs)

    @common
    @given(rows=rows_strategy, k=st.integers(1, 5))
    def test_bottomup_matches_reference_loop(self, backend, rows, k):
        dataset = Dataset(SCHEMA, rows)
        if len(dataset) < k:
            return
        hs = hierarchies()
        algorithm = BottomUpGeneralization(k)
        with force_backend(backend):
            cuts = algorithm.search_cuts(dataset, hs)
        assert cuts == reference_bug(algorithm, dataset, hs)

    @common
    @given(rows=rows_strategy, high=st.sampled_from((5.0, 12.0, 20.0)))
    def test_uncovered_value_raises_the_oracle_error(self, backend, rows, high):
        dataset = Dataset(SCHEMA, rows)
        cuts = top_cuts(dataset, hierarchies())
        cuts["age"] = NumericSplitCut((0.0, high))
        try:
            oracle_released_qi(dataset, cuts)
        except CutError as exc:
            expected = str(exc)
        else:
            expected = None
        with force_backend(backend):
            for score in (
                lambda: cut_violations(dataset, cuts, 2),
                lambda: cut_total_loss(dataset, cuts),
                lambda: apply_cuts(dataset, cuts, "uncovered"),
            ):
                if expected is None:
                    score()
                else:
                    with pytest.raises(CutError) as raised:
                        score()
                    assert str(raised.value) == expected


def paper_hierarchies():
    return {
        "Zip Code": paper_tables.zip_hierarchy(),
        "Age": paper_tables.age_hierarchy(10, 5),
        "Marital Status": paper_tables.marital_hierarchy(),
    }


class TestSearchCounters:
    def test_topdown_counts_trials_and_steps(self, table1):
        observation = Observation()
        with observing(observation):
            TopDownSpecialization(2, max_specializations=2).search_cuts(
                table1, paper_hierarchies()
            )
        counters = observation.metrics.snapshot()["counters"]
        assert counters["cuts.steps"] == 2
        assert counters["cuts.trials"] >= counters["cuts.steps"]

    def test_bottomup_counts_trials_and_steps(self, table1):
        observation = Observation()
        with observing(observation):
            BottomUpGeneralization(3).search_cuts(table1, paper_hierarchies())
        counters = observation.metrics.snapshot()["counters"]
        assert counters["cuts.steps"] >= 1
        assert counters["cuts.trials"] >= counters["cuts.steps"]


# -- releases built from class labels ------------------------------------------


def memoize_tokens(cuts):
    """``cuts`` whose ``map_value`` returns one token object per exactly
    distinct value, so two constructions over them share cell objects."""
    for cut in cuts.values():
        memo = {}
        original = cut.map_value

        def map_value(value, memo=memo, original=original):
            key = (type(value), repr(value), value)
            if key not in memo:
                memo[key] = original(value)
            return memo[key]

        cut.map_value = map_value
    return cuts


def per_row_cells_recoding(dataset, cuts):
    """``(rows, codes)`` as the per-row construction built them: every row
    releases its values' tokens (one ``map_value`` per exactly distinct
    value), and rows are keyed by the identity of their cells."""
    columns = []
    for name in dataset.schema.quasi_identifier_names:
        column = dataset.columns().column(name)
        codes, decode = column.codes, column.decode
        tokens = [cuts[name].map_value(value) for value in decode]
        columns.append([tokens[code] for code in codes])
    lookup, rows, codes = {}, [], []
    for cells in zip(*columns):
        code = lookup.setdefault(tuple(map(id, cells)), len(rows))
        if code == len(rows):
            rows.append(cells)
        codes.append(code)
    return tuple(rows), _compact(codes)


def mixed_table():
    """The mixed-type table of the Mondrian oracle (ints, floats and bools
    beside equal values of other types) with hierarchies a cut can use."""
    rng = random.Random(7)
    rows = [
        tuple(rng.choice(values) for values in (M_AGES, M_CODES, M_DISEASES, M_ZIPS))
        for _ in range(80)
    ]
    numbers = {value: ("number",) for value in M_CODES if not isinstance(value, str)}
    texts = {value: ("text",) for value in M_CODES if isinstance(value, str)}
    return Dataset(mondrian_schema(sensitive), rows), {
        "age": IntervalHierarchy("age", [Banding(5.0), Banding(10.0)], (0.0, 30.0)),
        "code": TaxonomyHierarchy("code", {**numbers, **texts}),
        "zip": MaskingHierarchy("zip", 3, domain=M_ZIPS),
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "algorithm",
    [
        TopDownSpecialization(3),
        TopDownSpecialization(3, flexible_numeric=True),
        BottomUpGeneralization(3),
    ],
    ids=lambda algorithm: algorithm.name,
)
@pytest.mark.parametrize("table", ["adult-2k", "mixed"])
def test_apply_cuts_matches_per_row_cells(backend, algorithm, table):
    """TDS and BUG releases, built from one token row per class, hold the
    recoding the per-row construction built: the same codes and the same
    cell objects, so they pickle byte for byte alike."""
    if table == "mixed":
        dataset, hierarchies = mixed_table()
    else:
        dataset, hierarchies = adult_dataset(2000, seed=5), adult_hierarchies()
    with force_backend(backend):
        cuts = memoize_tokens(algorithm.search_cuts(dataset, hierarchies))
        release = apply_cuts(dataset, cuts, name=algorithm.name)
    rows, codes = per_row_cells_recoding(dataset, cuts)
    local_rows, local_codes = release._local
    assert (local_codes.typecode, local_codes.tolist()) == (codes.typecode, codes.tolist())
    assert len(local_rows) == len(rows) > 1
    for local, expected in zip(local_rows, rows):
        assert len(local) == len(expected)
        assert all(a is b for a, b in zip(local, expected))
    assert pickle.dumps(release._local) == pickle.dumps((rows, codes))
