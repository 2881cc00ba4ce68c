"""A release is its recoding against the resident original.

An :class:`~repro.anonymize.engine.Anonymization` stores the original's
fingerprint plus its recoding, never a second row table, and whoever reads
a pickled one binds it to the original.  These tests hold that
representation to the computed release:

* *round trip* — for every registered algorithm, on small Adult and
  hospital tables and on both kernel backends, pickle → unpickle → ``bind``
  gives the same released cells (by type and ``repr``), suppressed rows,
  levels, name, partition and class keys, and bit-identical values of every
  registered scalar measure and vector property;
* *bare process* — a cache entry unpickles in a process that holds no
  dataset;
* *errors* — an unbound release and a release bound to another table
  raise :class:`AnonymizationError`;
* *mixed transports* — a pool study over a store holding warm
  ``anonymize`` entries but new measures equals an uncached inline run;
* *LM oracle* — the loss metric read from codes equals the dict-per-row
  implementation it replaced, kept here.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.anonymize.engine import (
    Anonymization,
    AnonymizationError,
    recode,
    released_with_local_cells,
)
from repro.datasets import adult_dataset
from repro.datasets.dataset import Dataset
from repro.datasets.schema import AttributeKind, Schema, quasi_identifier, sensitive
from repro.hierarchy.categorical import TaxonomyHierarchy
from repro.hierarchy.numeric import Banding, IntervalHierarchy
from repro.kernels import HAVE_NUMPY, force_backend
from repro.lint.api import check_cache_store
from repro.lint.diagnostics import Severity
from repro.runtime.cache import ResultCache
from repro.runtime.study import (
    ALGORITHM_FACTORIES,
    SCALAR_MEASURES,
    VECTOR_PROPERTIES,
    AlgorithmSpec,
    DatasetSpec,
    StudySpec,
    run_study,
)
from repro.runtime.task import CacheKey
from tests.goldens import _cell_token
from tests.rowplane import row_classes

BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])

#: Keeps the genetic search small; every other algorithm runs from ``k``.
PARAMS = {"genetic": {"population_size": 6, "generations": 3}}

WORKLOADS = {
    "adult": DatasetSpec.of("adult", rows=80, seed=3),
    "hospital": DatasetSpec.of("hospital", rows=80, seed=1),
}


def round_trip(release: Anonymization) -> Anonymization:
    return pickle.loads(pickle.dumps(release, protocol=pickle.HIGHEST_PROTOCOL))


def cell_tokens(release: Anonymization) -> list[str]:
    return [_cell_token(cell) for row in release.released for cell in row]


def partition(release: Anonymization):
    classes = release.equivalence_classes
    return (
        tuple(classes),
        [tuple(map(_cell_token, classes.key_of_class(i))) for i in range(len(classes))],
    )


def measured(release: Anonymization, hierarchies) -> dict[str, str]:
    """Every registered measure and property, as ``repr`` (bit-exact)."""
    values = {
        name: repr(measure(release, hierarchies))
        for name, measure in SCALAR_MEASURES.items()
    }
    values.update(
        (name, repr(prop(release, hierarchies).as_tuple()))
        for name, prop in VECTOR_PROPERTIES.items()
    )
    return values


class TestRoundTrip:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHM_FACTORIES))
    def test_rebound_release_equals_computed(self, algorithm, workload, backend):
        original, hierarchies = WORKLOADS[workload].materialize()
        anonymizer = ALGORITHM_FACTORIES[algorithm](k=3, **PARAMS.get(algorithm, {}))
        with force_backend(backend):
            computed = anonymizer.anonymize(original, hierarchies)
            restored = round_trip(computed)
            # The same content in a fresh object, as another process holds it.
            copy = pickle.loads(pickle.dumps(original))
            assert restored.bind(copy) is restored

            assert cell_tokens(restored) == cell_tokens(computed)
            assert restored.suppressed == computed.suppressed
            assert restored.levels == computed.levels
            assert restored.name == computed.name
            assert partition(restored) == partition(computed)
            assert tuple(row_classes(computed)) == partition(computed)[0]
            assert measured(restored, hierarchies) == measured(computed, hierarchies)

    def test_full_domain_entry_holds_no_rows(self):
        original = adult_dataset(2000, seed=42)
        spec = DatasetSpec.of("adult", rows=2000, seed=42)
        _, hierarchies = spec.materialize()
        release = ALGORITHM_FACTORIES["datafly"](k=5).anonymize(original, hierarchies)
        rows = pickle.dumps(
            (release.original.rows, release.released.rows),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        assert len(pickle.dumps(release, protocol=pickle.HIGHEST_PROTOCOL)) * 20 < len(rows)


class TestBinding:
    @pytest.fixture()
    def release(self):
        original, hierarchies = WORKLOADS["adult"].materialize()
        return ALGORITHM_FACTORIES["samarati"](k=3).anonymize(original, hierarchies)

    def test_unbound_access_raises(self, release):
        restored = round_trip(release)
        assert len(restored) == len(release)
        assert restored.suppressed == release.suppressed
        for read in (
            lambda: restored.original,
            lambda: restored.released,
            lambda: restored.equivalence_classes,
            restored.k,
        ):
            with pytest.raises(AnonymizationError, match="not bound"):
                read()

    def test_binding_another_table_raises(self, release):
        other = adult_dataset(len(release), seed=4)
        for target in (release, round_trip(release)):
            with pytest.raises(AnonymizationError, match="fingerprint"):
                target.bind(other)
        with pytest.raises(AnonymizationError, match="fingerprint"):
            round_trip(release).bind(adult_dataset(len(release) + 1, seed=3))

    def test_local_release_round_trips_unpickled_twice(self):
        original, hierarchies = WORKLOADS["hospital"].materialize()
        release = ALGORITHM_FACTORIES["mondrian"](k=3).anonymize(original, hierarchies)
        twice = round_trip(round_trip(release)).bind(original)
        assert cell_tokens(twice) == cell_tokens(release)


def test_entry_unpickles_in_a_process_without_datasets(tmp_path):
    original, hierarchies = WORKLOADS["adult"].materialize()
    cache = ResultCache(tmp_path / "store")
    path = cache.put(
        CacheKey(dataset=original.fingerprint(), algorithm="mondrian"),
        ALGORITHM_FACTORIES["mondrian"](k=3).anonymize(original, hierarchies),
    )
    script = (
        "import gc, pickle, sys\n"
        "entry = pickle.loads(open(sys.argv[1], 'rb').read())\n"
        "release = entry['value']\n"
        "from repro.datasets.dataset import Dataset\n"
        "held = sum(isinstance(item, Dataset) for item in gc.get_objects())\n"
        "try:\n"
        "    release.original\n"
        "except ValueError as error:\n"
        "    print(type(error).__name__, len(release), held)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        check=True,
    )
    name, rows, held = done.stdout.split()
    assert (name, int(rows), int(held)) == ("AnonymizationError", len(original), 0)
    errors = [
        finding
        for finding in check_cache_store(cache.root)
        if finding.severity is Severity.ERROR
    ]
    assert not errors


def test_pool_measures_over_warm_releases_equal_inline(tmp_path):
    dataset = DatasetSpec.of("adult", rows=80, seed=9)
    cells = (
        AlgorithmSpec.of("datafly", k=3),
        AlgorithmSpec.of("mondrian", k=3),
        AlgorithmSpec.of("topdown", k=3),
    )
    cache = ResultCache(tmp_path / "store")
    run_study(
        StudySpec(dataset=dataset, algorithms=cells, scalar_measures=("k_achieved",)),
        cache=cache,
    )
    spec = StudySpec(
        dataset=dataset,
        algorithms=cells,
        vector_properties=("equivalence-class-size", "tuple-utility"),
    )
    warm = run_study(spec, jobs=2, cache=cache, transport="pool")
    assert warm.report.cache_hits >= len(cells)
    assert warm.report.executed
    fresh = run_study(spec, transport="inline")
    assert warm.scalars == fresh.scalars
    for prop, vectors in fresh.vectors.items():
        assert {
            label: vector.as_tuple() for label, vector in warm.vectors[prop].items()
        } == {label: vector.as_tuple() for label, vector in vectors.items()}
    assert warm.comparisons == fresh.comparisons
    for label, release in fresh.releases.items():
        assert cell_tokens(warm.releases[label]) == cell_tokens(release)


# -- the loss metric against its dict-per-row implementation -------------------

SCHEMA = Schema.of(
    quasi_identifier("num", AttributeKind.NUMERIC),
    quasi_identifier("cat", AttributeKind.CATEGORICAL),
    sensitive("sens", AttributeKind.CATEGORICAL),
)
HIERARCHIES = {
    "num": IntervalHierarchy("num", [Banding(5), Banding(20)], (0, 100)),
    "cat": TaxonomyHierarchy(
        "cat",
        {
            "a": ("left",), "b": ("left",), "c": ("left",),
            "d": ("right",), "e": ("right",), "f": ("right",),
        },
    ),
}
HEIGHTS = {"num": 3, "cat": 2}


def dict_per_row_cell_losses(anonymization, hierarchies):
    """LM cell losses as they were: intern each released QI column, score
    each distinct value once, build one dict per row."""
    qi_names = anonymization.original.schema.quasi_identifier_names
    view = anonymization.released.columns()
    scored = []
    for name in qi_names:
        column = view.column(name)
        released_loss = hierarchies[name].released_loss
        scored.append(
            (name, column.codes, [released_loss(value) for value in column.decode])
        )
    return [
        {name: per_cell[codes[row_index]] for name, codes, per_cell in scored}
        for row_index in range(len(anonymization))
    ]


def dict_per_row_general_loss(anonymization, hierarchies):
    losses = [
        sum(row.values()) for row in dict_per_row_cell_losses(anonymization, hierarchies)
    ]
    qi_count = len(anonymization.original.schema.quasi_identifier_names)
    return sum(losses) / (len(losses) * qi_count), losses


@st.composite
def releases(draw):
    size = draw(st.integers(min_value=1, max_value=40))
    rows = [
        (
            draw(st.integers(min_value=0, max_value=100)),
            draw(st.sampled_from("abcdef")),
            draw(st.sampled_from(["s1", "s2"])),
        )
        for _ in range(size)
    ]
    data = Dataset(SCHEMA, rows)
    suppress = draw(st.lists(st.integers(0, size - 1), max_size=5, unique=True))
    if draw(st.booleans()):
        levels = {name: draw(st.integers(0, HEIGHTS[name])) for name in HEIGHTS}
        return recode(data, HIERARCHIES, levels, suppress=suppress)
    # A local release: every row generalizes each cell to its own level.
    qi_cells = [
        {
            name: HIERARCHIES[name].generalize(
                data.value(row_index, name), draw(st.integers(0, HEIGHTS[name]))
            )
            for name in HEIGHTS
        }
        for row_index in range(size)
    ]
    return released_with_local_cells(data, qi_cells, suppressed=suppress)


class TestLossMetricOracle:
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(releases())
    def test_codes_equal_dict_per_row(self, release):
        from repro.utility.loss_metric import cell_losses, general_loss, tuple_losses

        expected, per_row = dict_per_row_general_loss(release, HIERARCHIES)
        for candidate in (release, round_trip(release).bind(release.original)):
            assert repr(general_loss(candidate, HIERARCHIES)) == repr(expected)
            assert repr(tuple_losses(candidate, HIERARCHIES)) == repr(per_row)
            assert cell_losses(candidate, HIERARCHIES) == dict_per_row_cell_losses(
                release, HIERARCHIES
            )
