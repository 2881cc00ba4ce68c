"""Observability threaded through the study runtime.

The contracts under test:

* **tracing equivalence** — a traced study produces the same results as an
  untraced one, serial and parallel runs produce identical result values,
  and their span forests are structurally equal (same names/parents/
  categories; timings differ);
* **disabled path** — without an observation the run directory gains no
  trace/metrics files and results match the traced run;
* **per-run reset semantics** — two sequential studies on one executor
  report independent cache/metric deltas in their manifests (no
  cross-study leakage), and :meth:`RecodingWorkspace.reset_stats` zeroes
  the partition counters;
* **CLI surface** — ``repro study --trace/--metrics`` emits ART011-clean
  artifacts and ``repro obs summarize`` renders them.
"""

from __future__ import annotations

import json

import pytest

from repro.anonymize.algorithms.base import RecodingWorkspace
from repro.cli import main
from repro.datasets import adult_dataset, adult_hierarchies
from repro.lint.api import check_obs_artifacts
from repro.lint.diagnostics import Severity
from repro.obs import NULL_OBSERVATION, FakeClock, Observation, current, span_tree
from repro.obs.trace import TASK_CATEGORY
from repro.runtime.cache import ResultCache
from repro.runtime.events import (
    METRICS_FILENAME,
    TRACE_FILENAME,
    RunLog,
    read_manifest,
)
from repro.runtime.study import AlgorithmSpec, DatasetSpec, StudySpec, run_study

GRID = StudySpec(
    dataset=DatasetSpec.of("adult", rows=48, seed=7),
    algorithms=(
        AlgorithmSpec.of("datafly", k=2),
        AlgorithmSpec.of("mondrian", k=2),
    ),
    scalar_measures=("k_achieved", "suppressed"),
    vector_properties=("equivalence-class-size",),
    seed=7,
)


def _errors(findings):
    return [f for f in findings if f.severity is Severity.ERROR]


def _result_digest(result):
    """A canonical value fingerprint of a study's observable outputs."""
    vectors = {
        prop: {label: tuple(vec.values) for label, vec in by_label.items()}
        for prop, by_label in result.vectors.items()
    }
    return json.dumps(
        {
            "scalars": result.scalars,
            "vectors": vectors,
            "wins": {
                prop: comparison["wins"]
                for prop, comparison in result.comparisons.items()
            },
        },
        sort_keys=True,
        default=repr,
    )


class TestTracingEquivalence:
    def test_traced_serial_matches_parallel(self):
        serial_obs = Observation()
        parallel_obs = Observation()
        serial = run_study(GRID, jobs=1, obs=serial_obs)
        parallel = run_study(GRID, jobs=3, obs=parallel_obs)
        assert _result_digest(serial) == _result_digest(parallel)
        assert span_tree(serial_obs.trace.spans) == span_tree(parallel_obs.trace.spans)

    def test_traced_matches_untraced(self):
        traced = run_study(GRID, jobs=1, obs=Observation())
        untraced = run_study(GRID, jobs=1)
        assert _result_digest(traced) == _result_digest(untraced)

    def test_task_spans_cover_the_graph(self):
        observation = Observation()
        result = run_study(GRID, jobs=1, obs=observation)
        task_spans = {
            span.name
            for span in observation.trace.spans
            if span.category == TASK_CATEGORY
        }
        assert task_spans == set(result.report.outcomes)

    def test_worker_spans_nest_under_run(self):
        observation = Observation()
        run_study(GRID, jobs=3, obs=observation)
        spans = {span.span_id: span for span in observation.trace.spans}
        roots = [span for span in spans.values() if span.parent_id is None]
        assert [span.name for span in roots] == ["run"]
        for span in spans.values():
            if span.parent_id is not None:
                assert span.parent_id in spans

    def test_observation_not_left_installed(self):
        run_study(GRID, jobs=1, obs=Observation())
        assert current() is NULL_OBSERVATION

    def test_worker_metrics_ship_back(self):
        observation = Observation()
        run_study(GRID, jobs=3, obs=observation)
        snapshot = observation.metrics.snapshot()
        assert snapshot["counters"]["engine.recode.calls"] >= 1
        assert snapshot["counters"]["executor.tasks.executed"] > 0
        assert "task.exec_seconds" in snapshot["histograms"]
        assert "task.queue_seconds" in snapshot["histograms"]


class TestDisabledPath:
    def test_untraced_run_writes_no_obs_files(self, tmp_path):
        log = RunLog(tmp_path / "run")
        run_study(GRID, jobs=1, log=log)
        assert (log.run_dir / "manifest.json").exists()
        assert not (log.run_dir / TRACE_FILENAME).exists()
        assert not (log.run_dir / METRICS_FILENAME).exists()

    def test_traced_run_writes_obs_files(self, tmp_path):
        log = RunLog(tmp_path / "run")
        run_study(GRID, jobs=1, log=log, obs=Observation())
        trace_path = log.run_dir / TRACE_FILENAME
        metrics_path = log.run_dir / METRICS_FILENAME
        assert not _errors(check_obs_artifacts(trace_path))
        assert not _errors(check_obs_artifacts(metrics_path))

    def test_untraced_manifest_has_no_obs_section(self, tmp_path):
        log = RunLog(tmp_path / "run")
        run_study(GRID, jobs=1, log=log)
        assert "obs" not in read_manifest(log.run_dir)


class TestPerRunResetSemantics:
    def test_sequential_studies_report_independent_cache_deltas(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        first_log = RunLog(tmp_path / "run1")
        second_log = RunLog(tmp_path / "run2")
        run_study(GRID, jobs=1, cache=cache, log=first_log)
        run_study(GRID, jobs=1, cache=cache, log=second_log)
        first = read_manifest(first_log.run_dir)["cache"]
        second = read_manifest(second_log.run_dir)["cache"]
        tasks = read_manifest(first_log.run_dir)["tasks"]
        # Cold run: all writes, no hits.  Warm run: all hits, no writes.
        # Cumulative counters would double-count the cold run's writes here.
        assert first["writes"] == tasks and first["hits"] == 0
        assert second["hits"] == tasks and second["writes"] == 0

    def test_sequential_studies_report_independent_metric_deltas(self, tmp_path):
        observation = Observation()
        first_log = RunLog(tmp_path / "run1")
        second_log = RunLog(tmp_path / "run2")
        run_study(GRID, jobs=1, log=first_log, obs=observation)
        run_study(GRID, jobs=1, log=second_log, obs=observation)
        first = read_manifest(first_log.run_dir)["obs"]["counters"]
        second = read_manifest(second_log.run_dir)["obs"]["counters"]
        assert first["executor.tasks.executed"] == second["executor.tasks.executed"]
        # The live registry holds both runs; each manifest holds one.
        total = observation.metrics.counter("executor.tasks.executed")
        assert total == first["executor.tasks.executed"] * 2

    def test_exported_trace_covers_only_its_run(self, tmp_path):
        observation = Observation()
        first_log = RunLog(tmp_path / "run1")
        second_log = RunLog(tmp_path / "run2")
        run_study(GRID, jobs=1, log=first_log, obs=observation)
        run_study(GRID, jobs=1, log=second_log, obs=observation)
        first_trace = json.loads((first_log.run_dir / TRACE_FILENAME).read_text())
        second_trace = json.loads((second_log.run_dir / TRACE_FILENAME).read_text())
        first_events = [e for e in first_trace["traceEvents"] if e["ph"] == "X"]
        second_events = [e for e in second_trace["traceEvents"] if e["ph"] == "X"]
        assert len(first_events) == len(second_events)
        assert sum(e["name"] == "run" for e in first_events) == 1
        assert sum(e["name"] == "run" for e in second_events) == 1

    def test_workspace_reset_stats(self):
        dataset = adult_dataset(30, seed=1)
        workspace = RecodingWorkspace(dataset, adult_hierarchies())
        bottom = workspace.lattice.bottom
        workspace.partition(bottom)
        for node in workspace.lattice.successors(bottom):
            workspace.partition(node)
        assert workspace.partition_stats["fresh"] >= 1
        workspace.reset_stats()
        assert workspace.partition_stats == {
            "fresh": 0,
            "derived": 0,
            "hits": 0,
            "evictions": 0,
        }
        # Counters restart from zero; the partition cache itself survives,
        # so re-asking for a cached node counts as a hit of the new epoch.
        workspace.partition(bottom)
        assert workspace.partition_stats["hits"] == 1
        assert workspace.partition_stats["fresh"] == 0


class TestObsCli:
    def _study_args(self, tmp_path, *extra):
        return [
            "study",
            "--algorithms",
            "datafly",
            "mondrian",
            "--ks",
            "2",
            "--rows",
            "40",
            "--no-cache",
            "--run-dir",
            str(tmp_path / "run"),
            *extra,
        ]

    def test_trace_and_metrics_flags_emit_clean_artifacts(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        metrics_file = tmp_path / "metrics.json"
        code = main(
            self._study_args(
                tmp_path,
                "--trace",
                str(trace_file),
                "--metrics",
                str(metrics_file),
            )
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace:" in out and "metrics:" in out
        assert not _errors(check_obs_artifacts(trace_file))
        assert not _errors(check_obs_artifacts(metrics_file))

    def test_measures_flag_selects_scalars(self, tmp_path, capsys):
        code = main(self._study_args(tmp_path, "--measures", "k_achieved"))
        assert code == 0
        header = capsys.readouterr().out
        assert "k_achieved" in header and "lm" not in header

    def test_lint_select_art011_on_emitted_artifacts(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        metrics_file = tmp_path / "metrics.json"
        assert (
            main(
                self._study_args(
                    tmp_path, "--trace", str(trace_file), "--metrics", str(metrics_file)
                )
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "lint",
                "--runtime",
                str(trace_file),
                str(metrics_file),
                "--select",
                "ART011",
                "--strict",
            ]
        )
        assert code == 0

    def test_obs_summarize_renders_report(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert (
            main(
                self._study_args(
                    tmp_path,
                    "--trace",
                    str(run_dir / "trace.json"),
                    "--metrics",
                    str(run_dir / "metrics.json"),
                )
            )
            == 0
        )
        capsys.readouterr()
        assert main(["obs", "summarize", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "slowest tasks" in out
        assert "cache hit-rate by algorithm" in out
        assert "datafly" in out

    def test_obs_summarize_rejects_non_run_dir(self, tmp_path, capsys):
        assert main(["obs", "summarize", str(tmp_path / "nowhere")]) == 2
        assert "not" in capsys.readouterr().out.lower()


class TestGoldenObsFixture:
    """The pinned trace/metrics schema fixture (fake clock, stable keys)."""

    def test_fixture_matches_current_schemas(self):
        from tests.goldens_obs import compute_fixture, load_fixture

        pinned = load_fixture()
        current_payload = compute_fixture()
        assert current_payload == pinned, (
            "observability schema drift: regenerate with "
            "`PYTHONPATH=src python -m tests.goldens_obs` and review the diff"
        )

    def test_fixture_is_independent_of_earlier_runs(self):
        """A second run in the same process finds the table's verdict
        store warm unless the fixture starts from a fresh table."""
        from tests.goldens_obs import compute_fixture, load_fixture

        pinned = load_fixture()
        assert compute_fixture() == pinned
        assert compute_fixture() == pinned

    def test_fixture_is_art011_clean(self, tmp_path):
        from tests.goldens_obs import load_fixture

        pinned = load_fixture()
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        trace_path.write_text(json.dumps(pinned["trace"]))
        metrics_path.write_text(json.dumps(pinned["metrics"]))
        assert not _errors(check_obs_artifacts(trace_path))
        assert not _errors(check_obs_artifacts(metrics_path))

    def test_fixture_timestamps_monotone(self):
        from tests.goldens_obs import load_fixture

        events = [
            event
            for event in load_fixture()["trace"]["traceEvents"]
            if event["ph"] == "X"
        ]
        timestamps = [event["ts"] for event in events]
        assert timestamps == sorted(timestamps)
        assert all(event["dur"] >= 0 for event in events)
