"""Executor semantics: graphs, retries, failure isolation, timeout, resume.

The test operations are registered at module import time so that forked
worker processes (the default start method on Linux) inherit them.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.obs import Observation
from repro.runtime.cache import ResultCache
from repro.runtime.events import RunLog, read_events, read_manifest, summarize_events
from repro.runtime.executor import ExecutionError, StudyExecutor
from repro.runtime.task import CacheKey, TaskError, TaskGraph, TaskSpec, register_op


@register_op("test.echo")
def _op_echo(params, deps, seed):
    """Return the given value (optionally summed with dependency values)."""
    return params["value"] + sum(deps.values())


@register_op("test.fail")
def _op_fail(params, deps, seed):
    """Always raise."""
    raise RuntimeError("boom")


@register_op("test.flaky")
def _op_flaky(params, deps, seed):
    """Fail until a marker file exists, then succeed."""
    marker = Path(params["marker"])
    if marker.exists():
        return "recovered"
    marker.write_text("attempted")
    raise RuntimeError("first attempt fails")


@register_op("test.slow-once")
def _op_slow_once(params, deps, seed):
    """Sleep past the timeout on the first attempt, return fast after."""
    marker = Path(params["marker"])
    if not marker.exists():
        marker.write_text("attempted")
        time.sleep(params.get("sleep", 30.0))
    return "fast"


@register_op("test.touch")
def _op_touch(params, deps, seed):
    """Record the execution in a side-effect file, then return the value."""
    path = Path(params["log"])
    with path.open("a") as handle:
        handle.write(f"{params['value']}\n")
    return params["value"]


def echo(task_id, value, deps=(), key=None, retries=0, timeout=None):
    return TaskSpec(
        task_id=task_id,
        op="test.echo",
        params={"value": value},
        deps=tuple(deps),
        key=key,
        retries=retries,
        timeout=timeout,
    )


class TestTaskGraph:
    def test_insertion_order_is_topological(self):
        graph = TaskGraph()
        graph.add(echo("a", 1))
        graph.add(echo("b", 2, deps=["a"]))
        assert list(graph.task_ids) == ["a", "b"]
        assert "a" in graph and len(graph) == 2

    def test_duplicate_task_id_rejected(self):
        graph = TaskGraph()
        graph.add(echo("a", 1))
        with pytest.raises(TaskError, match="duplicate"):
            graph.add(echo("a", 2))

    def test_missing_dependency_rejected(self):
        graph = TaskGraph()
        with pytest.raises(TaskError, match="unknown tasks"):
            graph.add(echo("b", 2, deps=["ghost"]))

    def test_unknown_op_rejected(self):
        graph = TaskGraph()
        with pytest.raises(TaskError, match="unknown operation"):
            graph.add(TaskSpec(task_id="x", op="test.no-such-op"))

    def test_ready_respects_deps_and_exclusions(self):
        graph = TaskGraph()
        graph.add(echo("a", 1))
        graph.add(echo("b", 2, deps=["a"]))
        graph.add(echo("c", 3))
        ready_ids = {spec.task_id for spec in graph.ready(set(), set())}
        assert ready_ids == {"a", "c"}
        later = {spec.task_id for spec in graph.ready({"a"}, {"c"})}
        assert later == {"b"}


class TestSerialExecution:
    def test_values_flow_through_deps(self):
        graph = TaskGraph()
        graph.add(echo("a", 1))
        graph.add(echo("b", 2))
        graph.add(echo("sum", 10, deps=["a", "b"]))
        report = StudyExecutor(jobs=1).run(graph)
        assert report.value("sum") == 13
        assert report.completed == 3 and report.failed == 0

    def test_retry_recovers_flaky_task(self, tmp_path):
        graph = TaskGraph()
        graph.add(
            TaskSpec(
                task_id="flaky",
                op="test.flaky",
                params={"marker": str(tmp_path / "marker")},
                retries=2,
            )
        )
        report = StudyExecutor(jobs=1).run(graph)
        assert report.value("flaky") == "recovered"
        assert report.retries == 1
        assert report.outcomes["flaky"].attempts == 2

    def test_failure_blocks_dependents_but_not_independents(self):
        graph = TaskGraph()
        graph.add(TaskSpec(task_id="bad", op="test.fail"))
        graph.add(echo("child", 1, deps=["bad"]))
        graph.add(echo("grandchild", 1, deps=["child"]))
        graph.add(echo("independent", 7))
        report = StudyExecutor(jobs=1).run(graph)
        assert report.outcomes["bad"].status == "failed"
        assert report.outcomes["child"].status == "blocked"
        assert report.outcomes["grandchild"].status == "blocked"
        assert report.value("independent") == 7
        with pytest.raises(ExecutionError, match="bad"):
            report.raise_on_failure()

    def test_default_retries_apply_when_spec_has_none(self, tmp_path):
        graph = TaskGraph()
        graph.add(
            TaskSpec(
                task_id="flaky",
                op="test.flaky",
                params={"marker": str(tmp_path / "marker")},
            )
        )
        report = StudyExecutor(jobs=1, default_retries=1).run(graph)
        assert report.value("flaky") == "recovered"

    def test_events_keep_serial_order(self, tmp_path):
        """Each inline attempt is submitted and settled before the next."""
        graph = TaskGraph()
        graph.add(
            TaskSpec(
                task_id="flaky",
                op="test.flaky",
                params={"marker": str(tmp_path / "marker")},
                retries=1,
            )
        )
        graph.add(echo("after", 1))
        log = RunLog(tmp_path / "run")
        StudyExecutor(jobs=1, log=log).run(graph).raise_on_failure()
        transitions = [
            (event["event"], event["task"])
            for event in read_events(log.events_path)
            if "task" in event
        ]
        assert transitions == [
            ("submitted", "flaky"),
            ("retry", "flaky"),
            ("submitted", "flaky"),
            ("finished", "flaky"),
            ("submitted", "after"),
            ("finished", "after"),
        ]

    def test_every_attempt_is_traced_in_place(self, tmp_path):
        graph = TaskGraph()
        graph.add(
            TaskSpec(
                task_id="flaky",
                op="test.flaky",
                params={"marker": str(tmp_path / "marker")},
                retries=1,
            )
        )
        observation = Observation()
        StudyExecutor(jobs=1, obs=observation).run(graph).raise_on_failure()
        spans = [span for span in observation.trace.spans if span.name == "flaky"]
        assert [span.args.get("attempt") for span in spans] == [1, 2]
        assert spans[0].args["error"] == "RuntimeError"
        run = next(span for span in observation.trace.spans if span.name == "run")
        assert {span.parent_id for span in spans} == {run.span_id}
        histograms = observation.metrics.snapshot()["histograms"]
        assert histograms["task.exec_seconds.test.flaky"]["count"] == 2
        assert "task.queue_seconds" not in histograms

    def test_inline_attempts_run_past_their_timeout(self, tmp_path):
        graph = TaskGraph()
        graph.add(
            TaskSpec(
                task_id="slow",
                op="test.slow-once",
                params={"marker": str(tmp_path / "marker"), "sleep": 0.3},
                timeout=0.05,
            )
        )
        log = RunLog(tmp_path / "run")
        report = StudyExecutor(jobs=1, log=log).run(graph)
        assert report.value("slow") == "fast"
        assert report.outcomes["slow"].attempts == 1
        assert "timeout" not in summarize_events(read_events(log.events_path))


class TestParallelExecution:
    def test_parallel_matches_serial(self):
        def build():
            graph = TaskGraph()
            for i in range(6):
                graph.add(echo(f"leaf{i}", i))
            graph.add(echo("total", 0, deps=[f"leaf{i}" for i in range(6)]))
            return graph

        serial = StudyExecutor(jobs=1).run(build())
        parallel = StudyExecutor(jobs=3).run(build())
        assert serial.value("total") == parallel.value("total") == 15

    def test_timeout_then_retry_succeeds(self, tmp_path):
        graph = TaskGraph()
        graph.add(
            TaskSpec(
                task_id="slow",
                op="test.slow-once",
                params={"marker": str(tmp_path / "marker")},
                timeout=1.0,
                retries=1,
            )
        )
        log = RunLog(tmp_path / "run")
        report = StudyExecutor(jobs=2, log=log).run(graph)
        assert report.value("slow") == "fast"
        counts = summarize_events(read_events(log.events_path))
        assert counts.get("timeout", 0) >= 1
        assert counts.get("retry", 0) >= 1

    def test_timeout_without_retry_fails(self, tmp_path):
        graph = TaskGraph()
        graph.add(
            TaskSpec(
                task_id="slow",
                op="test.slow-once",
                params={"marker": str(tmp_path / "marker")},
                timeout=1.0,
            )
        )
        report = StudyExecutor(jobs=2).run(graph)
        assert report.outcomes["slow"].status == "failed"
        assert "timed out" in report.outcomes["slow"].error


class TestResume:
    def test_interrupted_run_resumes_from_cache(self, tmp_path):
        """A run that dies mid-study recomputes nothing it already finished."""
        side_effects = tmp_path / "executions.log"
        cache = ResultCache(tmp_path / "store")

        def build(include_poison):
            graph = TaskGraph()
            for i in range(4):
                graph.add(
                    TaskSpec(
                        task_id=f"work{i}",
                        op="test.touch",
                        params={"log": str(side_effects), "value": i},
                        key=CacheKey(dataset="resume-test", algorithm=f"work{i}"),
                    )
                )
            if include_poison:
                graph.add(TaskSpec(task_id="poison", op="test.fail"))
            graph.add(
                TaskSpec(
                    task_id="final",
                    op="test.touch",
                    params={"log": str(side_effects), "value": 99},
                    deps=tuple(f"work{i}" for i in range(4)),
                    key=CacheKey(dataset="resume-test", algorithm="final"),
                )
            )
            return graph

        # First run "crashes": a poison task fails, blocking nothing but
        # leaving the run marked failed (stand-in for a killed process —
        # kill -9 leaves the same on-disk state: completed prefix cached).
        first = StudyExecutor(jobs=1, cache=ResultCache(tmp_path / "store")).run(
            build(include_poison=True)
        )
        assert first.outcomes["poison"].status == "failed"
        assert first.completed == 5

        executed_first = side_effects.read_text().splitlines()
        assert sorted(executed_first) == ["0", "1", "2", "3", "99"]

        # Relaunch over the same store: everything cached, nothing re-runs.
        second = StudyExecutor(jobs=1, cache=cache).run(build(include_poison=False))
        second.raise_on_failure()
        assert second.cache_hits == 5
        assert second.executed == 0
        assert side_effects.read_text().splitlines() == executed_first

    def test_uncached_tasks_execute_on_resume(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        graph = TaskGraph()
        graph.add(echo("cached", 1, key=CacheKey(dataset="d", algorithm="cached")))
        graph.add(echo("fresh", 2))
        cache.put(CacheKey(dataset="d", algorithm="cached"), 111)
        report = StudyExecutor(jobs=1, cache=cache).run(graph)
        assert report.value("cached") == 111  # from the store, not recomputed
        assert report.value("fresh") == 2
        assert report.cache_hits == 1 and report.executed == 1


class TestRunArtifacts:
    def test_manifest_and_events_written(self, tmp_path):
        graph = TaskGraph()
        graph.add(echo("a", 1))
        log = RunLog(tmp_path / "run")
        StudyExecutor(jobs=1, log=log).run(graph)
        manifest = read_manifest(tmp_path / "run")
        assert manifest["status"] == "completed"
        assert manifest["task_ids"] == ["a"]
        counts = summarize_events(read_events(log.events_path))
        assert counts["run-start"] == 1
        assert counts["run-finish"] == 1
        assert counts["finished"] == 1

    def test_failed_run_marked_in_manifest(self, tmp_path):
        graph = TaskGraph()
        graph.add(TaskSpec(task_id="bad", op="test.fail"))
        log = RunLog(tmp_path / "run")
        StudyExecutor(jobs=1, log=log).run(graph)
        assert read_manifest(tmp_path / "run")["status"] == "failed"
