"""Studies end to end: graph shape, serial/parallel equality, memoization,
dataset fingerprints, runtime artifact lint, and the ``repro study`` CLI."""

from __future__ import annotations

import hashlib
import inspect

import pytest

from repro.cli import main
from repro.datasets import adult_dataset
from repro.lint.api import check_cache_store, check_run_artifacts
from repro.lint.diagnostics import Severity
from repro.runtime.cache import ResultCache
from repro.runtime.study import (
    ALGORITHM_FACTORIES,
    DATASET_MEMO_SIZE,
    AlgorithmSpec,
    DatasetSpec,
    StudyError,
    StudySpec,
    build_study,
    run_release_grid,
    _materialize_dataset,
    algorithm_key,
    run_study,
)

GRID = StudySpec(
    dataset=DatasetSpec.of("adult", rows=60, seed=7),
    algorithms=(
        AlgorithmSpec.of("datafly", k=2),
        AlgorithmSpec.of("mondrian", k=2),
        AlgorithmSpec.of("samarati", k=3),
    ),
    scalar_measures=("k_achieved", "suppressed"),
    vector_properties=("equivalence-class-size",),
    seed=7,
)


class TestSpecs:
    def test_unknown_names_rejected(self):
        with pytest.raises(StudyError, match="unknown algorithm"):
            AlgorithmSpec.of("no-such-algorithm", k=5)
        with pytest.raises(StudyError, match="unknown dataset"):
            DatasetSpec.of("no-such-dataset")

    def test_labels_carry_parameters(self):
        assert AlgorithmSpec.of("datafly", k=5).label == "datafly[k=5]"

    def test_with_seed_keys_are_pinned_for_every_factory(self):
        # Seeds enter only the factories whose signature takes one, and an
        # explicit seed is kept; the keys digest pins every cell's key.
        keys = []
        for name in sorted(ALGORITHM_FACTORIES):
            takes_seed = "seed" in inspect.signature(
                ALGORITHM_FACTORIES[name]
            ).parameters
            for params in ({"k": 3}, {"k": 3, "seed": 7}):
                spec = AlgorithmSpec.of(name, **params)
                seeded = spec.with_seed(42)
                assert seeded.with_seed(42) == seeded
                if takes_seed or "seed" in params:
                    assert "seed" in dict(seeded.params)
                if "seed" in params or not takes_seed:
                    assert seeded == spec
                keys.append(algorithm_key(seeded))
        digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()
        assert digest == (
            "ad6ee9df5a2b3b70320ec1b3f5816a898bb2ac919fd95fa066fd6be8063c3767"
        )

    def test_study_rejects_empty_grid(self):
        with pytest.raises(StudyError, match="at least one algorithm"):
            StudySpec(dataset=DatasetSpec.of("adult"), algorithms=())


class TestGraphShape:
    def test_task_counts(self):
        graph = build_study(GRID)
        ids = list(graph.task_ids)
        anonymize = [t for t in ids if t.startswith("anonymize:")]
        measure = [t for t in ids if t.startswith("measure:")]
        compare = [t for t in ids if t.startswith("compare:")]
        assert len(anonymize) == 3
        # 2 scalars + 1 vector property per cell.
        assert len(measure) == 3 * 3
        assert len(compare) == 1
        assert len(graph) == len(anonymize) + len(measure) + len(compare)

    def test_measures_depend_on_their_release(self):
        graph = build_study(GRID)
        spec = graph.task("measure:k_achieved:datafly[k=2]")
        assert spec.deps == ("anonymize:datafly[k=2]",)


class TestStudyExecution:
    def test_serial_equals_parallel(self):
        serial = run_study(GRID, jobs=1)
        parallel = run_study(GRID, jobs=2)
        assert serial.scalars == parallel.scalars
        for label in serial.labels:
            s = serial.vectors["equivalence-class-size"][label]
            p = parallel.vectors["equivalence-class-size"][label]
            assert tuple(s.values) == tuple(p.values)
        assert serial.comparisons.keys() == parallel.comparisons.keys()
        for prop in serial.comparisons:
            assert serial.comparisons[prop]["wins"] == parallel.comparisons[prop]["wins"]

    def test_warm_cache_rerun_executes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        cold = run_study(GRID, jobs=1, cache=cache)
        assert cold.report.executed == len(cold.report.outcomes)
        warm = run_study(GRID, jobs=1, cache=cache)
        assert warm.report.executed == 0
        assert warm.report.cache_hit_rate() == 1.0
        assert warm.scalars == cold.scalars

    def test_release_grid_matches_direct_anonymization(self, adult_h):
        specs = [AlgorithmSpec.of("datafly", k=2), AlgorithmSpec.of("mondrian", k=2)]
        dataset_spec = DatasetSpec.of("adult", rows=60, seed=7)
        releases = run_release_grid(specs, dataset_spec, jobs=2, seed=7)
        data = adult_dataset(60, seed=7)
        for spec, release in zip(specs, releases):
            direct = spec.build().anonymize(data, adult_h)
            assert release.released.rows == direct.released.rows
            assert release.suppressed == direct.suppressed


class TestDatasetFingerprint:
    def test_stable_for_identical_generation(self):
        assert (
            adult_dataset(50, seed=3).fingerprint()
            == adult_dataset(50, seed=3).fingerprint()
        )

    def test_sensitive_to_rows_and_seed(self):
        base = adult_dataset(50, seed=3).fingerprint()
        assert adult_dataset(51, seed=3).fingerprint() != base
        assert adult_dataset(50, seed=4).fingerprint() != base

    def test_column_order_independent(self):
        data = adult_dataset(40, seed=1)
        names = list(data.schema.names)
        reordered = data.project(list(reversed(names)))
        assert reordered.fingerprint() == data.fingerprint()

    def test_row_order_dependent(self):
        data = adult_dataset(40, seed=1)
        flipped = data.replace_rows(tuple(reversed(data.rows)))
        assert flipped.fingerprint() != data.fingerprint()

    def test_value_type_distinguished(self):
        # 1 and "1" must not collide: a type confusion would alias two
        # different datasets to one cache address.
        data = adult_dataset(5, seed=0)
        rows = [list(row) for row in data.rows]
        target = rows[0][0]
        rows[0][0] = str(target) if not isinstance(target, str) else int(target)
        assert data.replace_rows(rows).fingerprint() != data.fingerprint()


class TestDatasetMemo:
    def test_resident_datasets_are_bounded(self):
        specs = [
            DatasetSpec.of("adult", rows=20, seed=seed)
            for seed in range(DATASET_MEMO_SIZE + 1)
        ]
        first = specs[0].materialize()[0].fingerprint()
        for spec in specs:
            spec.materialize()
        cache = _materialize_dataset.cache_info()
        assert cache.maxsize == DATASET_MEMO_SIZE
        assert cache.currsize <= DATASET_MEMO_SIZE
        # The first spec was evicted; rebuilding it gives the same table.
        misses = cache.misses
        assert specs[0].materialize()[0].fingerprint() == first
        assert _materialize_dataset.cache_info().misses == misses + 1


class TestRuntimeArtifactLint:
    def test_clean_run_and_store_pass(self, tmp_path):
        from repro.runtime.events import RunLog

        cache = ResultCache(tmp_path / "store")
        log = RunLog(tmp_path / "run")
        run_study(GRID, jobs=1, cache=cache, log=log)
        assert check_run_artifacts(tmp_path / "run") == []
        findings = check_cache_store(tmp_path / "store")
        assert [f for f in findings if f.severity is Severity.ERROR] == []

    def test_missing_manifest_reported(self, tmp_path):
        findings = check_run_artifacts(tmp_path)
        assert any(f.rule == "ART009" for f in findings)

    def test_tampered_store_reported(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        run_study(GRID, jobs=1, cache=cache)
        victim = next((tmp_path / "store" / "objects").rglob("*.pkl"))
        victim.write_bytes(b"garbage")
        findings = check_cache_store(tmp_path / "store")
        assert any(
            f.rule == "ART010" and f.severity is Severity.ERROR for f in findings
        )


class TestStudyCli:
    ARGS = [
        "study",
        "--algorithms", "datafly", "mondrian",
        "--ks", "2", "3",
        "--rows", "60",
        "--jobs", "2",
    ]

    def test_cold_then_warm_expect_cached(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "store")]
        run_dir = ["--run-dir", str(tmp_path / "run")]
        assert main(self.ARGS + cache + run_dir) == 0
        cold = capsys.readouterr().out
        assert "datafly[k=2]" in cold
        assert "dominance wins" in cold
        # Cold run with --expect-cached must fail with the documented code.
        assert main(self.ARGS + ["--cache-dir", str(tmp_path / "s2"), "--expect-cached"]) == 3
        capsys.readouterr()
        # Warm rerun over the first store: pure cache hits.
        assert main(self.ARGS + cache + ["--expect-cached"]) == 0
        warm = capsys.readouterr().out
        assert "executed: 0" in warm
        assert "(100.0%)" in warm
        # The run artifacts the cold run left behind lint clean.
        assert check_run_artifacts(tmp_path / "run") == []

    def test_no_cache_disables_memoization(self, tmp_path, capsys):
        args = self.ARGS + ["--no-cache"]
        assert main(args) == 0
        assert "cache hits: 0" in capsys.readouterr().out


class TestCompareJobs:
    def test_parallel_compare_matches_serial(self, capsys):
        base = [
            "compare",
            "--algorithms", "datafly", "mondrian",
            "--rows", "80",
        ]
        assert main(base) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel
