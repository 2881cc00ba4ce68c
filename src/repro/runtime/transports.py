"""Worker transports for the study scheduler.

The scheduler half of :class:`~repro.runtime.executor.StudyExecutor`
owns the DAG frontier, cache, retries, timeouts and event log; *where*
a task attempt physically runs is delegated to a
:class:`WorkerTransport`:

* :class:`InlineTransport` — the coordinating process itself.  Marked
  ``synchronous``: the scheduler runs the op in its own loop,
  byte-for-byte the old ``jobs=1`` behavior (same spans, same clock
  reads, same event order).
* :class:`PoolTransport` — a ``multiprocessing`` pool.  Timeouts are
  enforced by tearing the pool down and rebuilding it (a stuck worker
  cannot be interrupted cooperatively); innocent in-flight tasks are
  reported back so the scheduler can resubmit them at no retry cost.
  Each worker reports which task it starts, so a worker that dies
  mid-task costs only the attempt it held, and ``Pool`` replaces the
  worker itself.  A dead worker with no reported task in flight (it died
  waiting for one, perhaps holding the task queue's read lock) falls back
  to a rebuild that charges every in-flight attempt, so the retry budget
  bounds it.  Teardown kills the workers itself and frees any queue lock
  a dead one left held, so it finishes in bounded time.

Transports are single-run objects: the scheduler calls ``start()``
before the first submission and ``stop()`` in a ``finally`` block.
A transport never interprets results — it moves payloads and result
tuples, nothing else, which is what keeps both paths bit-identical.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from typing import Any, Mapping

from .worker import pool_entry, pool_initializer

#: Transport registry names accepted by ``repro study --transport``.
TRANSPORT_NAMES = ("inline", "pool")


class TransportError(RuntimeError):
    """A transport-level fault (not a task failure)."""


@dataclasses.dataclass(frozen=True)
class TaskPayload:
    """One task attempt, as shipped to a worker."""

    task_id: str
    op: str
    params: Mapping[str, Any]
    deps: dict[str, Any]
    seed: int
    observe: bool

    def as_tuple(self) -> tuple[str, str, Mapping[str, Any], dict[str, Any], int, bool]:
        """The positional form consumed by the worker-side runner."""
        return (self.task_id, self.op, self.params, self.deps, self.seed, self.observe)


@dataclasses.dataclass(frozen=True)
class TaskResult:
    """One task attempt's outcome, as shipped back from a worker."""

    task_id: str
    ok: bool
    value: Any
    error: str | None
    duration: float
    spans: tuple[Any, ...] = ()
    snapshot: dict[str, Any] | None = None

    @classmethod
    def from_tuple(cls, raw: tuple[Any, ...]) -> "TaskResult":
        """Rehydrate from the worker-side runner's result tuple."""
        task_id, ok, value, error, duration, spans, snapshot = raw
        return cls(task_id, ok, value, error, duration, tuple(spans), snapshot)


class WorkerTransport:
    """Interface between the scheduler and a task-execution substrate."""

    #: Registry name (``inline`` / ``pool``).
    name = "abstract"
    #: ``True`` when the scheduler should execute tasks itself, inline.
    synchronous = False

    def start(self) -> None:
        """Bring up workers; called once before the first submission."""

    def submit(self, payload: TaskPayload) -> None:
        """Queue one task attempt."""
        raise NotImplementedError

    def poll(self) -> list[TaskResult]:
        """Collect every finished attempt without blocking."""
        return []

    def abandon(self, task_ids: set[str]) -> list[str]:
        """Forcibly drop timed-out in-flight attempts.

        Returns the ids of *innocent* attempts that were lost as
        collateral (e.g. a pool rebuild) and must be resubmitted by the
        scheduler without consuming their retry budget.
        """
        return []

    def stop(self) -> None:
        """Tear everything down; called in a ``finally`` block."""


class InlineTransport(WorkerTransport):
    """Run tasks in the coordinating process (the scheduler's own loop)."""

    name = "inline"
    synchronous = True


class PoolTransport(WorkerTransport):
    """The ``multiprocessing`` pool path of the original executor."""

    name = "pool"

    def __init__(self, processes: int):
        if processes < 1:
            raise ValueError(f"pool transport needs >= 1 process, got {processes}")
        self.processes = processes
        self._context = multiprocessing.get_context()
        self._pool: Any = None
        self._workers: list[Any] = []
        self._handles: dict[str, Any] = {}
        self._started: Any = None
        #: pid -> the task that worker last reported starting.
        self._running: dict[int, str] = {}
        #: Dead workers already accounted for, never to be watched again.
        self._handled: set[Any] = set()

    def start(self) -> None:
        self._started, writer = self._context.Pipe(duplex=False)
        self._pool = self._context.Pool(
            processes=self.processes,
            initializer=pool_initializer,
            initargs=(writer,),
        )
        self._running.clear()
        self._workers = []
        self._handled = set()
        self._watch_workers()

    def _watch_workers(self) -> None:
        # ``Pool`` silently replaces a worker that dies, and the task it
        # held never becomes ready; watching the processes it started
        # (kept here, since ``Pool`` drops exited ones from its own list)
        # is the only way to notice.  A dead worker stays in ``Pool``'s list
        # until its handler thread reaps it, so one already accounted for
        # is skipped rather than adopted, and charged, a second time.
        for worker in list(self._pool._pool):
            if worker not in self._workers and worker not in self._handled:
                self._workers.append(worker)

    def _drain_started(self) -> None:
        while self._started.poll():
            task_id, pid = self._started.recv()
            self._running[pid] = task_id

    def _shutdown(self) -> None:
        # ``Pool.terminate()`` first takes the task queue's read lock,
        # which an idle worker holds while it waits for a task: a worker
        # killed there never frees it, and terminate() would wait forever.
        # So the pool stops respawning, its workers are killed directly,
        # and a queue lock a dead worker left held is freed before the
        # pool is torn down.
        from multiprocessing.pool import TERMINATE

        pool = self._pool
        handler = pool._worker_handler
        handler._state = TERMINATE
        pool._change_notifier.put(None)
        handler.join()
        for worker in pool._pool:
            worker.kill()
        for worker in pool._pool:
            worker.join()
        # Only workers read tasks; the result queue's writers are the
        # workers and, for one sentinel, the pool's task thread.
        _free_lock(pool._inqueue._rlock, timeout=0.0)
        _free_lock(pool._outqueue._wlock, timeout=1.0)
        pool.terminate()
        pool.join()
        self._started.close()

    def _rebuild(self) -> None:
        self._handles.clear()
        self._shutdown()
        self.start()

    def submit(self, payload: TaskPayload) -> None:
        if self._pool is None:
            raise TransportError("pool transport not started")
        handle = self._pool.apply_async(pool_entry, (payload.as_tuple(),))
        self._handles[payload.task_id] = handle

    def poll(self) -> list[TaskResult]:
        results: list[TaskResult] = []
        for task_id in [t for t, h in self._handles.items() if h.ready()]:
            handle = self._handles.pop(task_id)
            try:
                results.append(TaskResult.from_tuple(handle.get()))
            except Exception as exc:  # noqa: BLE001 — pool-level fault
                results.append(
                    TaskResult(task_id, False, None, _describe(exc), 0.0)
                )
        self._watch_workers()
        dead = [worker for worker in self._workers if worker.exitcode is not None]
        # Drained on every poll, so reporting workers never fill the pipe.
        # A worker reports its task before running it, so reading the pipe
        # after seeing a death finds the report of the task it died in.
        self._drain_started()
        if not dead:
            return results
        if any(self._running.get(worker.pid) not in self._handles for worker in dead):
            # A worker that reported no task, or whose last task already
            # finished, died while waiting for one and may hold the task
            # queue's read lock, so the pool is rebuilt.  Which in-flight
            # attempt it held, if any, is unknowable, so every one of them
            # is charged a failed attempt.
            error = "pool worker died mid-task: " + ", ".join(
                f"pid {worker.pid} exit code {worker.exitcode}" for worker in dead
            )
            results.extend(
                TaskResult(task_id, False, None, error, 0.0)
                for task_id in self._handles
            )
            self._rebuild()
            return results
        for worker in dead:
            self._workers.remove(worker)
            self._handled.add(worker)
            task_id = self._running.pop(worker.pid)
            del self._handles[task_id]
            error = (
                f"pool worker died mid-task: pid {worker.pid} "
                f"exit code {worker.exitcode}"
            )
            results.append(TaskResult(task_id, False, None, error, 0.0))
        return results

    def abandon(self, task_ids: set[str]) -> list[str]:
        # A stuck pool worker cannot be interrupted cooperatively: the
        # whole pool is torn down and rebuilt, and in-flight tasks that
        # merely shared it are reported back as innocents.
        survivors = [t for t in self._handles if t not in task_ids]
        self._rebuild()
        return survivors

    def stop(self) -> None:
        if self._pool is not None:
            self._shutdown()
            self._pool = None


def _free_lock(lock: Any, timeout: float) -> None:
    """Leave ``lock`` free: taken and released when it frees up within
    ``timeout`` seconds, else released for the dead process holding it."""
    lock.acquire(timeout=timeout)
    lock.release()


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def create_transport(name: str, jobs: int) -> WorkerTransport:
    """Build a transport by registry name (``repro study --transport``)."""
    if name == "inline":
        return InlineTransport()
    if name == "pool":
        return PoolTransport(processes=max(jobs, 1))
    raise ValueError(f"unknown transport {name!r}; choose from {TRANSPORT_NAMES}")
