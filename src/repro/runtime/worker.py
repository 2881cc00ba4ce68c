"""One task attempt: its payload, its result, and the code that runs it.

:func:`execute_task` is the single runner for every transport: it
resolves the op through the registry and executes it under failure
isolation, recording the task span (with its ``attempt`` arg) and the
exec-time histograms in the *current* observation.  Under the null
observation that records nothing.

* The inline transport calls it in the coordinating process, under the
  run's own observation, so the span lands in place.
* The ``multiprocessing`` pool transport calls it through
  :func:`pool_entry`, which first reports ``(task_id, pid)`` to the
  coordinator (so a worker that dies mid-task costs only the attempt it
  held), then installs a fresh process-local observation when the
  coordinator asked for one and ships its spans plus a metrics snapshot
  back with the result.
"""

from __future__ import annotations

import dataclasses
import os
import time
import traceback
from typing import Any, Mapping

from ..obs import NULL_OBSERVATION, Observation, current, observing
from ..obs.trace import TASK_CATEGORY
from .task import resolve_op


@dataclasses.dataclass(frozen=True)
class TaskPayload:
    """One task attempt, as handed to a transport."""

    task_id: str
    op: str
    params: Mapping[str, Any]
    deps: dict[str, Any]
    seed: int
    observe: bool
    attempt: int = 1


@dataclasses.dataclass(frozen=True)
class TaskResult:
    """One task attempt's outcome, as handed back by a transport.

    ``spans``/``snapshot`` are set only for an observed attempt that ran
    in another process; the scheduler grafts the spans into its own trace
    and merges the counters.
    """

    task_id: str
    ok: bool
    value: Any
    error: str | None
    duration: float
    spans: tuple[Any, ...] = ()
    snapshot: dict[str, Any] | None = None


def _format_error(exc: BaseException) -> str:
    """A compact, picklable rendering of a task's exception."""
    trace = traceback.format_exc(limit=8)
    return f"{type(exc).__name__}: {exc}\n{trace}"


def execute_task(payload: TaskPayload) -> TaskResult:
    """Run one task attempt under the current observation.

    An ``Exception`` from the op becomes a failed result; anything else
    (``KeyboardInterrupt``, ``SystemExit``) propagates, stopping an inline
    run or ending a pool worker, which the pool transport reports as a
    failed attempt.
    """
    observation = current()
    start = time.perf_counter()
    span = observation.trace.span(
        payload.task_id, category=TASK_CATEGORY, op=payload.op, attempt=payload.attempt
    )
    ok, value, error = True, None, None
    try:
        with span:
            value = resolve_op(payload.op)(payload.params, payload.deps, payload.seed)
    except Exception as exc:  # noqa: BLE001 — retry policy boundary
        ok, error = False, _format_error(exc)
    observation.metrics.observe("task.exec_seconds", span.duration)
    observation.metrics.observe(f"task.exec_seconds.{payload.op}", span.duration)
    return TaskResult(payload.task_id, ok, value, error, time.perf_counter() - start)


#: This pool worker's end of the coordinator's attribution pipe (set by
#: :func:`pool_initializer`; ``None`` outside a pool worker).
_started: Any = None


def pool_initializer(started: Any) -> None:
    """Pool ``initializer``: keep the write end of the attribution pipe.

    Under a spawn start method a fresh worker has an empty op registry;
    importing the study module registers the standard operations.
    """
    global _started
    _started = started
    from . import study as _study  # noqa: F401


def pool_entry(payload: TaskPayload) -> TaskResult:
    """``multiprocessing`` pool entry point over :func:`execute_task`.

    Reports ``(task_id, pid)`` before running the task.  The message is
    one pipe write far below ``PIPE_BUF``, so workers share the pipe
    without a lock: a worker killed at any moment leaves either the whole
    message or none, and never a held lock.
    """
    if _started is not None:
        try:
            _started.send((payload.task_id, os.getpid()))
        except OSError:  # the coordinator closed the pipe; nothing to attribute
            pass
    observation = Observation() if payload.observe else NULL_OBSERVATION
    with observing(observation):
        result = execute_task(payload)
    return dataclasses.replace(
        result,
        spans=tuple(observation.trace.spans),
        snapshot=observation.metrics.snapshot() if observation.enabled else None,
    )
