"""Transport-agnostic scheduling with memoization and retries.

:class:`StudyExecutor` is split into two halves:

* a **scheduler** (this module) that owns the DAG frontier, cache
  lookup/store, retry budgets, timeouts, failure isolation and event
  logging; and
* a :class:`~repro.runtime.transports.WorkerTransport` that decides
  *where* a task attempt physically runs — ``inline`` (the coordinating
  process, byte-for-byte the old ``jobs=1`` loop) or ``pool`` (a
  ``multiprocessing`` pool with timeout-via-rebuild and innocent-task
  resubmission).

Before a task executes its content-addressed cache key is consulted, so
finished work is never repeated — this is also the resume mechanism: a
killed run re-launched over the same store skips its completed prefix.

Failure isolation: a task that raises is retried up to its budget, then
marked ``failed``; its transitive dependents are marked ``blocked`` and
every independent branch of the graph keeps running.  A task that
exceeds its timeout is abandoned through the transport (the pool is torn
down and rebuilt), and innocent in-flight tasks are resubmitted without
consuming their retry budget.

Seeds: each task receives ``derive_seed(study_seed, task_id)`` — derived
by ``hashlib`` splitting, never from worker-local RNG state — so results
are independent of transport, worker count and scheduling order.
"""

from __future__ import annotations

import dataclasses
import time
import traceback
from typing import Any

from ..obs import Observation, current as current_observation, observing
from ..obs.export import write_chrome_trace, write_metrics_snapshot
from ..obs.trace import TASK_CATEGORY
from .cache import MISS, ResultCache
from .events import METRICS_FILENAME, TRACE_FILENAME, RunLog
from .task import TaskGraph, TaskSpec, derive_seed, resolve_op
from .transports import (
    TaskPayload,
    WorkerTransport,
    create_transport,
)


class ExecutionError(RuntimeError):
    """Raised by :meth:`ExecutionReport.raise_on_failure` on failed tasks."""


@dataclasses.dataclass
class TaskOutcome:
    """Terminal state of one task in one run."""

    task_id: str
    status: str  # "done" | "failed" | "blocked"
    value: Any = None
    error: str | None = None
    attempts: int = 0
    cached: bool = False
    duration: float = 0.0


class ExecutionReport:
    """Outcome map plus run-level tallies for one executor run."""

    def __init__(self, outcomes: dict[str, TaskOutcome], wall_seconds: float):
        self.outcomes = outcomes
        self.wall_seconds = wall_seconds

    def value(self, task_id: str) -> Any:
        """The result value of a completed task."""
        outcome = self.outcomes[task_id]
        if outcome.status != "done":
            raise ExecutionError(
                f"task {task_id!r} did not complete "
                f"(status {outcome.status!r}: {outcome.error})"
            )
        return outcome.value

    @property
    def completed(self) -> int:
        """Tasks that finished (executed or served from cache)."""
        return sum(1 for o in self.outcomes.values() if o.status == "done")

    @property
    def cache_hits(self) -> int:
        """Tasks served entirely from the content-addressed store."""
        return sum(1 for o in self.outcomes.values() if o.cached)

    @property
    def executed(self) -> int:
        """Tasks that actually ran (completed without a cache hit)."""
        return sum(
            1 for o in self.outcomes.values() if o.status == "done" and not o.cached
        )

    @property
    def failed(self) -> int:
        """Tasks that exhausted their retry budget."""
        return sum(1 for o in self.outcomes.values() if o.status == "failed")

    @property
    def blocked(self) -> int:
        """Tasks skipped because a dependency failed."""
        return sum(1 for o in self.outcomes.values() if o.status == "blocked")

    @property
    def retries(self) -> int:
        """Total retry attempts across all tasks."""
        return sum(max(0, o.attempts - 1) for o in self.outcomes.values())

    def cache_hit_rate(self) -> float:
        """Fraction of tasks served from cache (0.0 on an empty run)."""
        if not self.outcomes:
            return 0.0
        return self.cache_hits / len(self.outcomes)

    def summary(self) -> dict[str, Any]:
        """Run tallies as a plain dict (manifests, reports, CI checks)."""
        return {
            "tasks": len(self.outcomes),
            "completed": self.completed,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "failed": self.failed,
            "blocked": self.blocked,
            "retries": self.retries,
            "wall_seconds": self.wall_seconds,
        }

    def raise_on_failure(self) -> None:
        """Raise :class:`ExecutionError` if any task failed or was blocked."""
        broken = [
            outcome
            for outcome in self.outcomes.values()
            if outcome.status != "done"
        ]
        if broken:
            first = broken[0]
            raise ExecutionError(
                f"{len(broken)} task(s) did not complete; first: "
                f"{first.task_id!r} ({first.status}: {first.error})"
            )


def _format_error(exc: BaseException) -> str:
    """A compact, picklable rendering of a worker-side exception."""
    trace = traceback.format_exc(limit=8)
    return f"{type(exc).__name__}: {exc}\n{trace}"


class StudyExecutor:
    """Runs task graphs with memoization, parallelism and retry policy.

    Parameters
    ----------
    jobs:
        Worker count for the chosen transport; ``1`` with the default
        transport executes inline in the calling process (no
        subprocesses, identical to a plain serial loop).
    cache:
        Optional :class:`~repro.runtime.cache.ResultCache` for
        content-addressed memoization and resume.
    log:
        Optional :class:`~repro.runtime.events.RunLog` receiving one event
        per task transition plus the run manifest.
    study_seed:
        Root seed; per-task seeds are split off it by task id.
    default_timeout:
        Fallback per-attempt timeout for specs that set none.
    default_retries:
        Fallback retry budget for specs that set none (spec value wins).
    poll_interval:
        Scheduler poll period in seconds (asynchronous transports).
    obs:
        Optional :class:`repro.obs.Observation` receiving spans and
        metrics.  Defaults to the process-current observation
        (:func:`repro.obs.current`), which is the shared no-op unless a
        caller installed a live one — the untraced path records nothing
        and allocates nothing.
    transport:
        ``"inline"`` / ``"pool"``, or a ready
        :class:`~repro.runtime.transports.WorkerTransport` instance.
        Defaults to ``inline`` when ``jobs == 1`` and ``pool`` otherwise.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        log: RunLog | None = None,
        study_seed: int = 0,
        default_timeout: float | None = None,
        default_retries: int = 0,
        poll_interval: float = 0.02,
        obs: Observation | None = None,
        transport: str | WorkerTransport | None = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.log = log
        self.study_seed = study_seed
        self.default_timeout = default_timeout
        self.default_retries = default_retries
        self.poll_interval = poll_interval
        self.obs = obs
        self.transport = transport

    # -- shared helpers ------------------------------------------------------

    def _make_transport(self) -> WorkerTransport:
        if isinstance(self.transport, WorkerTransport):
            return self.transport
        name = self.transport
        if name is None:
            name = "inline" if self.jobs == 1 else "pool"
        return create_transport(name, self.jobs)

    def _event(self, kind: str, task_id: str | None = None, **fields: Any) -> None:
        if self.log is not None:
            self.log.event(kind, task_id=task_id, **fields)

    def _timeout_for(self, spec: TaskSpec) -> float | None:
        return spec.timeout if spec.timeout is not None else self.default_timeout

    def _retries_for(self, spec: TaskSpec) -> int:
        return spec.retries if spec.retries else self.default_retries

    def _cache_lookup(self, spec: TaskSpec) -> Any:
        if self.cache is None or spec.key is None:
            return MISS
        return self.cache.get(spec.key)

    def _cache_store(self, spec: TaskSpec, value: Any) -> None:
        if self.cache is not None and spec.key is not None:
            self.cache.put(spec.key, value)

    def _block_dependents(
        self,
        graph: TaskGraph,
        failed_id: str,
        outcomes: dict[str, TaskOutcome],
    ) -> None:
        """Mark every transitive dependent of a failed task as blocked."""
        frontier = [failed_id]
        while frontier:
            current = frontier.pop()
            for dependent in graph.dependents(current):
                if dependent in outcomes:
                    continue
                outcomes[dependent] = TaskOutcome(
                    dependent, "blocked", error=f"dependency {current!r} failed"
                )
                self._event("blocked", dependent, cause=current)
                frontier.append(dependent)

    def _start_manifest(self, graph: TaskGraph, transport: WorkerTransport) -> None:
        if self.log is None:
            return
        manifest = {
            "status": "running",
            "tasks": len(graph),
            "task_ids": list(graph.task_ids),
            "jobs": self.jobs,
            "transport": transport.name,
            "study_seed": self.study_seed,
            "started_at": time.time(),
        }
        self.log.write_manifest(manifest)

    def _finish_manifest(
        self,
        graph: TaskGraph,
        report: ExecutionReport,
        transport: WorkerTransport,
        cache_mark: dict[str, int] | None,
        observation: Any,
        obs_mark: dict[str, Any],
    ) -> None:
        if self.log is None:
            return
        manifest = {
            "status": "completed" if report.failed == 0 and report.blocked == 0 else "failed",
            "tasks": len(graph),
            "task_ids": list(graph.task_ids),
            "jobs": self.jobs,
            "transport": transport.name,
            "study_seed": self.study_seed,
            "finished_at": time.time(),
            **report.summary(),
        }
        if self.cache is not None:
            # Report this run's delta, not the cache object's lifetime
            # totals: a long-lived cache shared by sequential studies must
            # not leak the first run's hits into the second run's manifest.
            stats = self.cache.stats.snapshot()
            if cache_mark is not None:
                stats = {name: stats[name] - cache_mark.get(name, 0) for name in stats}
            manifest["cache"] = stats
        if observation.enabled:
            manifest["obs"] = observation.metrics.delta_since(obs_mark)
        self.log.write_manifest(manifest)

    # -- local (coordinator-side) execution ----------------------------------

    def _run_local(
        self,
        graph: TaskGraph,
        spec: TaskSpec,
        values: dict[str, Any],
        outcomes: dict[str, TaskOutcome],
        completed: set[str],
        attempts: dict[str, int],
        observation: Any,
    ) -> None:
        """Execute one task to a terminal state in the calling process.

        This is byte-for-byte the body of the historical serial loop —
        same spans, same clock reads, same event order — so the inline
        transport preserves the pinned observability goldens.
        """
        tracer = observation.trace
        metrics = observation.metrics
        deps = {dep: values[dep] for dep in spec.deps}
        budget = self._retries_for(spec)
        attempt = attempts.get(spec.task_id, 0)
        while True:
            attempt += 1
            attempts[spec.task_id] = attempt
            self._event("submitted", spec.task_id, attempt=attempt)
            start = time.perf_counter()
            span = tracer.span(
                spec.task_id, category=TASK_CATEGORY, op=spec.op, attempt=attempt
            )
            try:
                with span:
                    value = resolve_op(spec.op)(
                        spec.params,
                        deps,
                        derive_seed(self.study_seed, spec.task_id),
                    )
            except Exception as exc:  # noqa: BLE001 — retry policy boundary
                error = _format_error(exc)
                if attempt <= budget:
                    self._event("retry", spec.task_id, attempt=attempt)
                    metrics.inc("task.retry")
                    continue
                outcomes[spec.task_id] = TaskOutcome(
                    spec.task_id,
                    "failed",
                    error=error,
                    attempts=attempt,
                    duration=time.perf_counter() - start,
                )
                self._event("failed", spec.task_id, attempts=attempt)
                metrics.inc("executor.tasks.failed")
                self._block_dependents(graph, spec.task_id, outcomes)
                return
            duration = time.perf_counter() - start
            self._cache_store(spec, value)
            outcomes[spec.task_id] = TaskOutcome(
                spec.task_id,
                "done",
                value=value,
                attempts=attempt,
                duration=duration,
            )
            values[spec.task_id] = value
            completed.add(spec.task_id)
            self._event("finished", spec.task_id, seconds=round(duration, 6))
            metrics.inc("executor.tasks.executed")
            metrics.observe("task.exec_seconds", span.duration)
            metrics.observe(f"task.exec_seconds.{spec.op}", span.duration)
            return

    # -- the scheduler -------------------------------------------------------

    def _run_scheduled(
        self,
        graph: TaskGraph,
        observation: Any,
        transport: WorkerTransport,
    ) -> dict[str, TaskOutcome]:
        tracer = observation.trace
        metrics = observation.metrics
        outcomes: dict[str, TaskOutcome] = {}
        values: dict[str, Any] = {}
        completed: set[str] = set()
        scheduled: set[str] = set()
        attempts: dict[str, int] = {}
        in_flight: set[str] = set()
        # task_id -> absolute deadline (asynchronous transports only).
        deadlines: dict[str, float] = {}
        # task_id -> submission instant, for queue-latency histograms
        # (tracked only under observation; the untraced path pays nothing).
        submitted_at: dict[str, float] = {}

        def settle_cached(spec: TaskSpec, value: Any) -> None:
            outcomes[spec.task_id] = TaskOutcome(
                spec.task_id, "done", value=value, cached=True
            )
            values[spec.task_id] = value
            completed.add(spec.task_id)
            self._event("cache-hit", spec.task_id)
            with tracer.span(spec.task_id, category="cache-hit", op=spec.op):
                pass
            metrics.inc("executor.tasks.cached")

        def complete(spec: TaskSpec, value: Any, duration: float) -> None:
            self._cache_store(spec, value)
            outcomes[spec.task_id] = TaskOutcome(
                spec.task_id,
                "done",
                value=value,
                attempts=attempts.get(spec.task_id, 0),
                duration=duration,
            )
            values[spec.task_id] = value
            completed.add(spec.task_id)
            self._event("finished", spec.task_id, seconds=round(duration, 6))
            metrics.inc("executor.tasks.executed")

        def fail(spec: TaskSpec, error: str) -> None:
            outcomes[spec.task_id] = TaskOutcome(
                spec.task_id,
                "failed",
                error=error,
                attempts=attempts.get(spec.task_id, 0),
            )
            self._event("failed", spec.task_id, attempts=attempts.get(spec.task_id, 0))
            metrics.inc("executor.tasks.failed")
            self._block_dependents(graph, spec.task_id, outcomes)

        def submit_remote(spec: TaskSpec) -> None:
            attempts[spec.task_id] = attempts.get(spec.task_id, 0) + 1
            payload = TaskPayload(
                spec.task_id,
                spec.op,
                spec.params,
                {dep: values[dep] for dep in spec.deps},
                derive_seed(self.study_seed, spec.task_id),
                observation.enabled,
            )
            transport.submit(payload)
            in_flight.add(spec.task_id)
            timeout = self._timeout_for(spec)
            if timeout is not None:
                deadlines[spec.task_id] = time.monotonic() + timeout
            if observation.enabled:
                submitted_at[spec.task_id] = time.monotonic()
            self._event("submitted", spec.task_id, attempt=attempts[spec.task_id])

        def dispatch(spec: TaskSpec) -> None:
            if transport.synchronous:
                self._run_local(
                    graph, spec, values, outcomes, completed, attempts, observation
                )
            else:
                submit_remote(spec)

        while len(outcomes) < len(graph):
            progressed = False

            # Schedule everything whose dependencies are satisfied.
            for spec in graph.ready(completed, scheduled | set(outcomes)):
                cached = self._cache_lookup(spec)
                if cached is not MISS:
                    settle_cached(spec, cached)
                    progressed = True
                    continue
                scheduled.add(spec.task_id)
                dispatch(spec)
                progressed = True

            if not transport.synchronous:
                # Collect finished attempts.
                for result in transport.poll():
                    progressed = True
                    task_id = result.task_id
                    in_flight.discard(task_id)
                    deadlines.pop(task_id, None)
                    spec = graph.task(task_id)
                    if result.spans:
                        # Worker clocks have their own epoch; shift the
                        # shipped spans so the latest one ends "now" on the
                        # coordinator's axis, then adopt them under the
                        # current (run) span.
                        shift = tracer.now() - max(span.end for span in result.spans)
                        tracer.graft(result.spans, shift=shift)
                    if result.snapshot is not None:
                        metrics.merge(result.snapshot)
                    if observation.enabled and task_id in submitted_at:
                        waited = time.monotonic() - submitted_at.pop(task_id)
                        metrics.observe(
                            "task.queue_seconds", max(waited - result.duration, 0.0)
                        )
                    if result.ok:
                        complete(spec, result.value, result.duration)
                    elif attempts[task_id] <= self._retries_for(spec):
                        self._event("retry", task_id, attempt=attempts[task_id])
                        metrics.inc("task.retry")
                        submit_remote(spec)
                    else:
                        fail(spec, result.error or "unknown worker failure")

                # Enforce deadlines through the transport; innocents lost
                # as collateral (a pool rebuild) are resubmitted free.
                if deadlines:
                    now = time.monotonic()
                    expired = [t for t, d in deadlines.items() if now > d]
                    if expired:
                        progressed = True
                        innocents = transport.abandon(set(expired))
                        for task_id in expired:
                            in_flight.discard(task_id)
                            deadlines.pop(task_id, None)
                            submitted_at.pop(task_id, None)
                            spec = graph.task(task_id)
                            self._event("timeout", task_id, attempt=attempts[task_id])
                            metrics.inc("task.timeout")
                            if attempts[task_id] <= self._retries_for(spec):
                                self._event("retry", task_id, attempt=attempts[task_id])
                                metrics.inc("task.retry")
                                submit_remote(spec)
                            else:
                                fail(
                                    spec,
                                    f"timed out after {self._timeout_for(spec)}s "
                                    f"({attempts[task_id]} attempt(s))",
                                )
                        for task_id in innocents:
                            attempts[task_id] -= 1
                            in_flight.discard(task_id)
                            deadlines.pop(task_id, None)
                            submitted_at.pop(task_id, None)
                            submit_remote(graph.task(task_id))

            if progressed:
                continue
            if not in_flight:
                if len(outcomes) < len(graph) and not graph.ready(
                    completed, scheduled | set(outcomes)
                ):
                    # Nothing running, nothing ready: the remainder is
                    # unreachable (should be covered by blocking, but
                    # never spin forever).
                    for spec in graph:
                        if spec.task_id not in outcomes:
                            outcomes[spec.task_id] = TaskOutcome(
                                spec.task_id, "blocked", error="unreachable"
                            )
                continue
            time.sleep(self.poll_interval)

        return outcomes

    # -- entry point ---------------------------------------------------------

    def run(self, graph: TaskGraph) -> ExecutionReport:
        """Execute the graph and return the per-task outcome report.

        The run is bracketed by per-run marks on the cache counters and the
        metrics registry, so manifests always report *this run's* deltas —
        never lifetime totals of a reused cache or observation.  With an
        enabled observation and a run log, the recorded spans and the metric
        delta are also exported as ``trace.json`` / ``metrics.json`` next to
        the manifest.
        """
        observation = self.obs if self.obs is not None else current_observation()
        transport = self._make_transport()
        with observing(observation):
            tracer = observation.trace
            metrics = observation.metrics
            cache_mark = None if self.cache is None else self.cache.stats.snapshot()
            obs_mark = metrics.mark()
            span_mark = len(tracer.spans)
            started = time.perf_counter()
            self._event(
                "run-start", tasks=len(graph), jobs=self.jobs,
                transport=transport.name,
            )
            self._start_manifest(graph, transport)
            transport.start()
            try:
                with tracer.span(
                    "run", category="executor", tasks=len(graph), jobs=self.jobs
                ):
                    outcomes = self._run_scheduled(graph, observation, transport)
            finally:
                transport.stop()
            report = ExecutionReport(outcomes, time.perf_counter() - started)
            self._event("run-finish", **report.summary())
            self._finish_manifest(
                graph, report, transport, cache_mark, observation, obs_mark
            )
            if observation.enabled and self.log is not None:
                write_chrome_trace(
                    tracer.spans[span_mark:], self.log.run_dir / TRACE_FILENAME
                )
                write_metrics_snapshot(
                    metrics.delta_since(obs_mark),
                    self.log.run_dir / METRICS_FILENAME,
                )
            return report
