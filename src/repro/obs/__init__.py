"""repro.obs — observability plane for the study runtime.

One :class:`Observation` bundles a tracer and a metrics registry.  The
module-level *current observation* defaults to :data:`NULL_OBSERVATION`
(shared no-op singletons), so instrumented code — executor, cache, engine,
recoding workspace — calls :func:`tracer` / :func:`metrics` unconditionally
and pays nothing unless a caller has installed a live observation with
:func:`observing`.

The current observation is process-local by design: worker processes start
at the null default, the pool worker installs a fresh live observation per
task when the coordinator asks for one, and ships the recorded spans and a
metrics snapshot back in the task result (see
``repro.runtime.worker.execute_task``).  Nothing here touches ambient
global state that could leak between sequential studies — per-run reporting
is cut with :meth:`MetricsRegistry.delta_since`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Union

from .metrics import METRICS_SCHEMA, MetricsRegistry, NULL_METRICS, NullMetrics
from .trace import (
    NULL_TRACER,
    FakeClock,
    NullTracer,
    Span,
    Tracer,
    slowest_spans,
    span_tree,
    spans_from_payload,
)

__all__ = [
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "NULL_TRACER",
    "FakeClock",
    "NullTracer",
    "Span",
    "Tracer",
    "slowest_spans",
    "span_tree",
    "spans_from_payload",
    "Observation",
    "NULL_OBSERVATION",
    "current",
    "tracer",
    "metrics",
    "observing",
]


class Observation:
    """A tracer + metrics registry pair, enabled as a unit."""

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None):
        self.trace: Tracer = Tracer(clock=clock)
        self.metrics: MetricsRegistry = MetricsRegistry()


class _NullObservation:
    """The disabled pair installed by default."""

    __slots__ = ()

    enabled = False
    trace: NullTracer = NULL_TRACER
    metrics: NullMetrics = NULL_METRICS


NULL_OBSERVATION = _NullObservation()

_current: Union[Observation, _NullObservation] = NULL_OBSERVATION


def current() -> Union[Observation, _NullObservation]:
    """The process-local current observation (null unless installed)."""
    return _current


def tracer() -> Union[Tracer, NullTracer]:
    """The current tracer (the shared no-op tracer when disabled)."""
    return _current.trace


def metrics() -> Union[MetricsRegistry, NullMetrics]:
    """The current metrics sink (the shared no-op sink when disabled)."""
    return _current.metrics


@contextmanager
def observing(obs: Union[Observation, _NullObservation]) -> Iterator[None]:
    """Install ``obs`` as the current observation for the block's duration."""
    global _current
    previous = _current
    _current = obs
    try:
        yield
    finally:
        _current = previous
