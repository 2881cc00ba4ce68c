"""Transport layer: inline/pool parity, pool fault handling, resume.

The acceptance bar for the scheduler/transport split: ``inline`` and
``pool`` runs of the same graph produce bit-identical values, and a pool
worker that dies mid-task costs the task one attempt instead of hanging
the study.

The test operations are registered at module import time so that forked
pool workers (the default start method on Linux) inherit them.
"""

from __future__ import annotations

import faulthandler
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.runtime.cache import ResultCache
from repro.runtime.executor import StudyExecutor
from repro.runtime.task import CacheKey, TaskGraph, TaskSpec, register_op
from repro.runtime import transports
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


@register_op("tx.sleep")
def _op_tx_sleep(params, deps, seed):
    """Sleep ``params['seconds']``, then return the value."""
    time.sleep(params["seconds"])
    return params["value"]


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

    def test_dead_worker_costs_only_its_own_attempt(self, tmp_path):
        """An attempt running beside the victim is not charged for its
        death: it still runs when the victim dies, and succeeds first time."""
        cache = ResultCache(tmp_path / "cache")
        pidfile = tmp_path / "pids.txt"
        key = CacheKey(dataset="sigkill", algorithm="victim")
        graph = self.victim_graph(pidfile, key, 0)
        graph.add(
            TaskSpec(
                task_id="independent",
                op="tx.sleep",
                params={"seconds": 1.0, "value": 7},
            )
        )
        executor = StudyExecutor(jobs=2, transport="pool", cache=cache)
        report = run_bounded(executor, graph, 60)

        victim = report.outcomes["victim"]
        assert victim.status == "failed" and victim.attempts == 1
        assert "pool worker died" in victim.error
        independent = report.outcomes["independent"]
        assert independent.value == 7
        assert independent.attempts == 1

    def test_unattributed_death_charges_every_attempt(self, tmp_path, monkeypatch):
        """Without a task report from the dead worker, any in-flight
        attempt might have been its, so each one is charged."""
        monkeypatch.setattr(transports, "pool_initializer", lambda started: None)
        pidfile = tmp_path / "pids.txt"
        graph = self.victim_graph(pidfile, CacheKey(dataset="sigkill", algorithm="v"), 0)
        graph.add(
            TaskSpec(
                task_id="independent",
                op="tx.sleep",
                params={"seconds": 1.0, "value": 7},
            )
        )
        report = run_bounded(StudyExecutor(jobs=2, transport="pool"), graph, 60)

        for task_id in ("victim", "independent"):
            outcome = report.outcomes[task_id]
            assert outcome.status == "failed" and outcome.attempts == 1
            assert "pool worker died" in outcome.error


    def test_reaped_late_dead_worker_is_not_charged_twice(self, tmp_path):
        """A dead worker still listed by ``Pool`` on the next poll (its
        handler thread has not reaped it yet) is not accounted for again:
        the attempt running beside it is not charged and the pool is not
        rebuilt."""
        transport = PoolTransport(processes=2)
        transport.start()
        faulthandler.dump_traceback_later(60, exit=True)
        try:
            pool = transport._pool
            originals = list(pool._pool)
            pidfile = tmp_path / "pids.txt"
            transport.submit(
                transports.TaskPayload(
                    "victim", "tx.die-once",
                    {"pidfile": str(pidfile), "value": 42}, {}, 0, False,
                )
            )
            transport.submit(
                transports.TaskPayload(
                    "innocent", "tx.sleep", {"seconds": 2.0, "value": 7}, {}, 0, False
                )
            )
            results = []
            while not results:
                time.sleep(0.01)
                results = transport.poll()
            assert [(r.task_id, r.ok) for r in results] == [("victim", False)]
            assert "pool worker died" in results[0].error
            (victim,) = [w for w in originals if w.pid == int(pidfile.read_text())]
            # Wait for the stdlib to reap and replace it, then list it again
            # as if the reaping had not happened yet.
            while victim in pool._pool or len(pool._pool) < 2:
                time.sleep(0.01)
            time.sleep(0.1)
            pool._pool.append(victim)
            assert transport.poll() == []
            assert transport._pool is pool
            pool._pool.remove(victim)
            results = []
            while not results:
                time.sleep(0.01)
                results = transport.poll()
            assert [(r.task_id, r.ok, r.value) for r in results] == [("innocent", True, 7)]
            transport.stop()
        finally:
            faulthandler.cancel_dump_traceback_later()


class TestIdleWorkerDeath:
    """A worker killed while it waits for a task dies holding the task
    queue's read lock; the pool must still tear down and run on."""

    @staticmethod
    def run_one(transport, task_id, value):
        transport.submit(
            transports.TaskPayload(task_id, "tx.echo", {"value": value}, {}, 0, False)
        )
        results = []
        while not results:
            time.sleep(0.01)
            results = transport.poll()
        return results

    @pytest.mark.parametrize("warm", [False, True])
    def test_next_task_completes_after_idle_worker_is_killed(self, warm):
        """Killed right after ``start()``, or after it finished a task (its
        last reported task is then no longer in flight)."""
        transport = PoolTransport(processes=1)
        transport.start()
        faulthandler.dump_traceback_later(60, exit=True)
        try:
            if warm:
                assert [r.value for r in self.run_one(transport, "warm", 1)] == [1]
            else:
                time.sleep(0.2)  # let the worker reach its wait for a task
            victim = transport._pool._pool[0]
            os.kill(victim.pid, signal.SIGKILL)
            while victim.exitcode is None:
                time.sleep(0.01)
            # Noticing the death rebuilds the pool; nothing was in flight.
            assert transport.poll() == []
            results = self.run_one(transport, "next", 5)
            assert [(r.task_id, r.ok, r.value) for r in results] == [("next", True, 5)]
            transport.stop()
        finally:
            faulthandler.cancel_dump_traceback_later()


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
