"""Transport layer: inline/pool parity, pool fault handling, resume.

The acceptance bar for the scheduler/transport split: ``inline`` and
``pool`` runs of the same graph produce bit-identical values, and a pool
worker that dies mid-task costs the task one attempt instead of hanging
the study.

The test operations are registered at module import time so that forked
pool workers (the default start method on Linux) inherit them.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.runtime.cache import ResultCache
from repro.runtime.events import RunLog, read_events
from repro.runtime.executor import StudyExecutor
from repro.runtime.task import CacheKey, TaskGraph, TaskSpec, register_op
from repro.runtime.transports import (
    InlineTransport,
    PoolTransport,
    create_transport,
)

#: task names executed in-process, appended under _EXECUTED_LOCK by tx.touch.
_EXECUTED: list[str] = []
_EXECUTED_LOCK = threading.Lock()


@register_op("tx.echo")
def _op_tx_echo(params, deps, seed):
    """Return the given value summed with dependency values."""
    return params["value"] + sum(deps.values())


@register_op("tx.pid")
def _op_tx_pid(params, deps, seed):
    """Return the executing worker's pid (proves out-of-process execution)."""
    return os.getpid()


@register_op("tx.seeded")
def _op_tx_seeded(params, deps, seed):
    """Return the derived seed (proves seed propagation to workers)."""
    return seed


@register_op("tx.fail")
def _op_tx_fail(params, deps, seed):
    """Always raise."""
    raise RuntimeError("worker boom")


@register_op("tx.die-once")
def _op_tx_die_once(params, deps, seed):
    """Record our pid; SIGKILL ourselves on the first attempt only."""
    pidfile = Path(params["pidfile"])
    with pidfile.open("a") as handle:
        handle.write(f"{os.getpid()}\n")
    if len(pidfile.read_text().split()) == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return params["value"]


@register_op("tx.local", inline_only=True)
def _op_tx_local(params, deps, seed):
    """An op declared coordinator-local; returns the executing pid."""
    return os.getpid()


@register_op("tx.touch")
def _op_tx_touch(params, deps, seed):
    """Record the execution and return the task's value."""
    with _EXECUTED_LOCK:
        _EXECUTED.append(params["name"])
    return params["value"]


def tx_task(task_id, value, deps=(), key=None, retries=0, op="tx.echo"):
    return TaskSpec(
        task_id=task_id, op=op, params={"value": value}, deps=tuple(deps),
        key=key, retries=retries,
    )


def diamond_graph() -> TaskGraph:
    graph = TaskGraph()
    graph.add(tx_task("a", 1))
    graph.add(tx_task("b", 10))
    graph.add(tx_task("c", 100, deps=["a", "b"]))
    graph.add(tx_task("seeded", 0, op="tx.seeded"))
    graph.add(tx_task("final", 1000, deps=["c", "seeded"]))
    return graph


class _Hung(Exception):
    """Raised by the alarm guard when a run does not return in time."""


def run_bounded(executor: StudyExecutor, graph: TaskGraph, seconds: int):
    """Run ``graph``, failing (not hanging) if it takes over ``seconds``.

    The alarm interrupts the scheduler's poll loop in the main thread; the
    executor's ``finally`` then tears the pool down.
    """

    def expire(signum, frame):
        raise _Hung(f"executor did not return within {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return executor.run(graph)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestTransportRegistry:
    def test_create_transport_names(self):
        assert create_transport("inline", 1).name == "inline"
        assert create_transport("pool", 2).name == "pool"
        with pytest.raises(ValueError):
            create_transport("socket", 2)
        with pytest.raises(ValueError):
            create_transport("carrier-pigeon", 1)


class TestTransportParity:
    def run_with(self, transport, retries=0):
        executor = StudyExecutor(transport=transport, default_retries=retries)
        report = executor.run(diamond_graph())
        report.raise_on_failure()
        return {t: o.value for t, o in report.outcomes.items()}

    def test_inline_pool_values_identical(self):
        inline = self.run_with(InlineTransport())
        pool = self.run_with(PoolTransport(processes=2))
        assert inline == pool
        assert inline["final"] == 1000 + (100 + 1 + 10) + inline["seeded"]

    def test_pool_tasks_run_in_other_processes(self):
        graph = TaskGraph()
        graph.add(tx_task("pid", 0, op="tx.pid"))
        report = StudyExecutor(transport=PoolTransport(processes=1)).run(graph)
        report.raise_on_failure()
        assert report.outcomes["pid"].value != os.getpid()

    def test_pool_failure_isolation_and_retry_budget(self):
        graph = TaskGraph()
        graph.add(tx_task("boom", 0, op="tx.fail", retries=1))
        graph.add(tx_task("child", 5, deps=["boom"]))
        graph.add(tx_task("independent", 7))
        report = StudyExecutor(transport=PoolTransport(processes=1)).run(graph)
        assert report.outcomes["boom"].status == "failed"
        assert report.outcomes["boom"].attempts == 2
        assert "worker boom" in report.outcomes["boom"].error
        assert report.outcomes["child"].status == "blocked"
        assert report.outcomes["independent"].value == 7

    def test_scheduler_falls_back_inline_for_inline_only_ops(self, tmp_path):
        log = RunLog(tmp_path / "run")
        graph = TaskGraph()
        graph.add(tx_task("local", 0, op="tx.local"))
        graph.add(tx_task("remote", 0, op="tx.pid"))
        report = StudyExecutor(transport=PoolTransport(processes=1), log=log).run(graph)
        report.raise_on_failure()
        assert report.outcomes["local"].value == os.getpid()
        assert report.outcomes["remote"].value != os.getpid()
        fallbacks = [e for e in read_events(log.events_path) if e["event"] == "inline-fallback"]
        assert [(e["task"], e["reason"]) for e in fallbacks] == [("local", "inline-only")]


class TestStudyParityAcrossTransports:
    """The smoke-study acceptance criterion: bit-identical results."""

    @staticmethod
    def run_study_with(tmp_path, name, **kwargs):
        from repro.runtime.study import AlgorithmSpec, DatasetSpec, StudySpec, run_study

        spec = StudySpec(
            dataset=DatasetSpec.of("adult", rows=24, seed=7),
            algorithms=(
                AlgorithmSpec.of("datafly", k=2),
                AlgorithmSpec.of("mondrian", k=2),
            ),
            scalar_measures=("k_achieved", "lm"),
            vector_properties=("equivalence-class-size",),
            compare=True,
            seed=7,
        )
        cache = ResultCache(tmp_path / f"cache-{name}")
        return run_study(spec, cache=cache, **kwargs)

    def test_inline_pool_bit_identical(self, tmp_path):
        inline = self.run_study_with(tmp_path, "inline", transport="inline")
        pool = self.run_study_with(tmp_path, "pool", jobs=2, transport="pool")
        assert inline.report.executed == pool.report.executed > 0
        assert inline.scalars == pool.scalars
        assert inline.vectors == pool.vectors
        assert inline.comparisons == pool.comparisons


class TestPoolWorkerDeath:
    """A SIGKILLed pool worker must cost an attempt, never hang the study."""

    @staticmethod
    def victim_graph(pidfile: Path, key: CacheKey, retries: int) -> TaskGraph:
        graph = TaskGraph()
        graph.add(
            TaskSpec(
                task_id="victim",
                op="tx.die-once",
                params={"pidfile": str(pidfile), "value": 42},
                key=key,
                retries=retries,
            )
        )
        return graph

    def test_sigkilled_pool_worker_rebuilds_and_retries(self, tmp_path):
        """After the kill: right value, two attempts, one cache object."""
        cache = ResultCache(tmp_path / "cache")
        pidfile = tmp_path / "pids.txt"
        key = CacheKey(dataset="sigkill", algorithm="victim")
        executor = StudyExecutor(
            jobs=2, transport="pool", cache=cache, default_retries=1
        )
        report = run_bounded(executor, self.victim_graph(pidfile, key, 1), 60)

        report.raise_on_failure()
        outcome = report.outcomes["victim"]
        assert outcome.value == 42
        assert outcome.attempts == 2
        assert report.retries == 1
        # The retry ran in a different process: the first one is dead.
        pids = [int(line) for line in pidfile.read_text().split()]
        assert len(pids) == 2 and pids[0] != pids[1]
        # Exactly one stored object for the key; nothing lost, nothing
        # duplicated, and the content address verifies.
        assert cache.get(key) == 42
        assert len(cache) == 1
        assert len(list((tmp_path / "cache").glob("objects/*/*.pkl"))) == 1

    def test_sigkilled_pool_worker_without_retries_fails_cleanly(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        pidfile = tmp_path / "pids.txt"
        key = CacheKey(dataset="sigkill", algorithm="victim")
        graph = self.victim_graph(pidfile, key, 0)
        graph.add(tx_task("independent", 7))
        executor = StudyExecutor(jobs=2, transport="pool", cache=cache)
        started = time.monotonic()
        report = run_bounded(executor, graph, 60)

        assert time.monotonic() - started < 30
        outcome = report.outcomes["victim"]
        assert outcome.status == "failed"
        assert outcome.attempts == 1
        assert "pool worker died" in outcome.error
        assert report.outcomes["independent"].value == 7
        assert len(cache) == 0


class TestResume:
    def test_fresh_executor_resumes_killed_run_without_recompute(self, tmp_path):
        """Cache-backed resume: a successor run never re-executes work."""

        def touch_graph() -> TaskGraph:
            graph = TaskGraph()
            for i in range(4):
                name = f"t{i}"
                graph.add(
                    TaskSpec(
                        task_id=name,
                        op="tx.touch",
                        params={"name": name, "value": i * 10},
                        key=CacheKey(dataset="resume", algorithm=name),
                    )
                )
            return graph

        cache = ResultCache(tmp_path / "cache")
        with _EXECUTED_LOCK:
            _EXECUTED.clear()
        first = StudyExecutor(cache=cache).run(touch_graph())
        assert first.executed == 4
        with _EXECUTED_LOCK:
            _EXECUTED.clear()
        second = StudyExecutor(cache=cache).run(touch_graph())
        assert second.cache_hits == 4
        assert second.executed == 0
        assert _EXECUTED == []
