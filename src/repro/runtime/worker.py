"""Worker-side task execution for the pool transport.

:func:`execute_task` is the single worker-side runner: it resolves the
op through the registry, executes it under failure isolation (never
raises), and — when the coordinator requested observation — records the
task in a fresh process-local :class:`~repro.obs.Observation`, shipping
the spans plus a metrics snapshot back with the result.  The
``multiprocessing`` pool transport calls it through :func:`pool_entry`,
which first reports ``(task_id, pid)`` to the coordinator so a worker
that dies mid-task costs only the attempt it held.
"""

from __future__ import annotations

import os
import time
from typing import Any, Mapping

from ..obs import Observation, observing
from ..obs.trace import TASK_CATEGORY
from .task import resolve_op


def _format_error(exc: BaseException) -> str:
    """A compact, picklable rendering of a worker-side exception."""
    import traceback

    trace = traceback.format_exc(limit=8)
    return f"{type(exc).__name__}: {exc}\n{trace}"


def execute_task(
    task_id: str,
    op_name: str,
    params: Mapping[str, Any],
    deps: dict[str, Any],
    seed: int,
    observe: bool,
) -> tuple[str, bool, Any, str | None, float, tuple[Any, ...], dict[str, Any] | None]:
    """Run one task attempt; never raises (failure isolation).

    Returns ``(task_id, ok, value, error, duration, spans, snapshot)``.
    ``spans``/``snapshot`` are empty unless ``observe`` is set, in which
    case the coordinator grafts the spans into its own trace and merges
    the counters.
    """
    start = time.perf_counter()
    if not observe:
        try:
            # Under a spawn start method a fresh worker has an empty
            # registry; importing the study module registers the standard
            # operations.
            from . import study as _study  # noqa: F401

            value = resolve_op(op_name)(params, deps, seed)
            return (task_id, True, value, None, time.perf_counter() - start, (), None)
        except BaseException as exc:  # noqa: BLE001 — isolate *any* worker fault
            return (
                task_id, False, None, _format_error(exc),
                time.perf_counter() - start, (), None,
            )
    observation = Observation()
    ok, value, error = True, None, None
    with observing(observation):
        span = observation.trace.span(task_id, category=TASK_CATEGORY, op=op_name)
        try:
            with span:
                from . import study as _study  # noqa: F401

                value = resolve_op(op_name)(params, deps, seed)
        except BaseException as exc:  # noqa: BLE001 — isolate *any* worker fault
            ok, error = False, _format_error(exc)
    observation.metrics.observe("task.exec_seconds", span.duration)
    observation.metrics.observe(f"task.exec_seconds.{op_name}", span.duration)
    return (
        task_id,
        ok,
        value,
        error,
        time.perf_counter() - start,
        tuple(observation.trace.spans),
        observation.metrics.snapshot(),
    )


#: This pool worker's end of the coordinator's attribution pipe (set by
#: :func:`pool_initializer`; ``None`` outside a pool worker).
_started: Any = None


def pool_initializer(started: Any) -> None:
    """Pool ``initializer``: keep the write end of the attribution pipe."""
    global _started
    _started = started


def pool_entry(
    payload: tuple[str, str, Mapping[str, Any], dict[str, Any], int, bool],
) -> tuple[str, bool, Any, str | None, float, tuple[Any, ...], dict[str, Any] | None]:
    """``multiprocessing`` pool entry point over :func:`execute_task`.

    Reports ``(task_id, pid)`` before running the task.  The message is
    one pipe write far below ``PIPE_BUF``, so workers share the pipe
    without a lock: a worker killed at any moment leaves either the whole
    message or none, and never a held lock.
    """
    if _started is not None:
        try:
            _started.send((payload[0], os.getpid()))
        except OSError:  # the coordinator closed the pipe; nothing to attribute
            pass
    return execute_task(*payload)
