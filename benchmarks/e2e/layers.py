"""Per-layer span wrappers for the traced benchmark run.

A traced pass installs a :class:`LayerRecorder` before it touches the
program.  The recorder wraps public functions and methods of each layer at
the binding site its callers use: module-level functions are replaced in
every ``repro`` module that bound them by name, methods on their class,
kernel operations on the active backend instance.  Each wrapper records a
:class:`repro.obs.Span` on the recorder's own :class:`repro.obs.Tracer`, so
spans nest by the tracer's stack and stay in memory until the pass writes
them out.  The program's own observation is left alone.

A span's *self time* is its duration minus the time its child spans cover.
Everything inside a recording window that no span covers is reported as
``unattributed``.  Layer names follow the program's module names.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from typing import Any, Callable, Iterator

from repro.obs import Tracer

#: Algorithms the workloads run; each gets an ``anonymize.<name>`` layer.
ALGORITHMS = ("datafly", "samarati", "incognito", "muargus", "mondrian", "topdown")

#: Kernel layer -> the backend operations it covers (grouped as the
#: kernel module documents them).
KERNEL_OPS = {
    "kernels.intern": ("intern",),
    "kernels.pack": ("pack",),
    "kernels.group": ("group", "densify"),
    "kernels.gather": ("gather", "scatter_fill"),
    "kernels.bincount": ("bincount", "fold_add", "fold_min"),
}

#: Every layer a traced run reports, in report order.
LAYERS = (
    *KERNEL_OPS,
    "anonymize.workspace.partition",
    "anonymize.search",
    *(f"anonymize.{name}" for name in ALGORITHMS),
    "anonymize.engine.recode",
    "anonymize.classes",
    "datasets.generate",
    "datasets.fingerprint",
    "datasets.columns",
    "datasets.distinct",
    "hierarchy.level_table",
    "runtime.cache.get",
    "runtime.cache.put",
    "runtime.executor",
    "core.properties",
    "utility.measures",
    "analysis.compare",
    "serve.state.release_for",
    "serve.state.vector_for",
    "serve.state.compare_for",
    "serve.state.query_for",
)

#: Counters the wrappers keep besides spans.
COUNTERS = (
    "partition.fresh",
    "partition.derived",
    "partition.hits",
    "cache.gets",
    "cache.hits",
    "cache.bytes_read",
    "cache.bytes_written",
)


class LayerRecorder:
    """Records layer spans while a window is open."""

    def __init__(self) -> None:
        self.tracer = Tracer(clock=time.perf_counter)
        self.recording = False
        self.window_s = 0.0
        self.counters = dict.fromkeys(COUNTERS, 0)

    @contextlib.contextmanager
    def window(self) -> Iterator[None]:
        """Record spans for the block; its wall time joins ``window_s``."""
        self.recording = True
        started = time.perf_counter()
        try:
            yield
        finally:
            self.window_s += time.perf_counter() - started
            self.recording = False

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording one ``name`` span per call inside a window."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.recording:
                return fn(*args, **kwargs)
            with self.tracer.span(name, category="layer"):
                return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every layer of the (already importable) program."""
        from repro import kernels
        from repro.analysis import matrix
        from repro.anonymize import engine
        from repro.anonymize.algorithms.base import RecodingWorkspace
        from repro.core import properties
        from repro.datasets import adult
        from repro.datasets.columnar import ColumnarView
        from repro.datasets.dataset import Dataset
        from repro.hierarchy import codes
        from repro.runtime.cache import MISS, ResultCache
        from repro.runtime.executor import StudyExecutor
        from repro.runtime.study import ALGORITHM_FACTORIES
        from repro.serve.state import ServeState
        from repro.utility.discernibility import discernibility
        from repro.utility.loss_metric import general_loss

        backend = kernels.active()
        for layer, ops in KERNEL_OPS.items():
            for op in ops:
                setattr(backend, op, self.wrap(layer, getattr(backend, op)))

        # Read every original before patching any, so a subclass never
        # wraps its parent's already wrapped method.
        originals = {name: ALGORITHM_FACTORIES[name].anonymize for name in ALGORITHMS}
        for name, original in originals.items():
            ALGORITHM_FACTORIES[name].anonymize = self.wrap(f"anonymize.{name}", original)

        self._wrap_partition(RecodingWorkspace)
        self._wrap_method(RecodingWorkspace, "violation_count", "anonymize.search")
        classes = engine.Anonymization.__dict__["equivalence_classes"]
        engine.Anonymization.equivalence_classes = property(
            self.wrap("anonymize.classes", classes.fget), doc=classes.__doc__
        )
        self._wrap_method(Dataset, "fingerprint", "datasets.fingerprint")
        self._wrap_method(Dataset, "distinct", "datasets.distinct")
        self._wrap_method(ColumnarView, "column", "datasets.columns")
        self._wrap_cache(ResultCache, MISS)
        self._wrap_method(StudyExecutor, "run", "runtime.executor")
        for method in ("release_for", "vector_for", "compare_for", "query_for"):
            self._wrap_method(ServeState, method, f"serve.state.{method}")

        functions = [
            (engine.recode, "anonymize.engine.recode"),
            (adult.adult_dataset, "datasets.generate"),
            (codes.level_table, "hierarchy.level_table"),
            (general_loss, "utility.measures"),
            (discernibility, "utility.measures"),
            (matrix.relation_matrix_serial, "analysis.compare"),
            (matrix.win_counts, "analysis.compare"),
        ]
        functions += [
            (value, "core.properties")
            for name, value in vars(properties).items()
            if callable(value)
            and not name.startswith("_")
            and getattr(value, "__module__", None) == properties.__name__
        ]
        for original, layer in functions:
            _rebind(original, self.wrap(layer, original))

    def _wrap_method(self, cls: type, attribute: str, layer: str) -> None:
        setattr(cls, attribute, self.wrap(layer, getattr(cls, attribute)))

    def _wrap_partition(self, workspace_cls: type) -> None:
        """``partition`` spans plus fresh/derived/hit counts per call."""
        original = workspace_cls.partition
        traced = self.wrap("anonymize.workspace.partition", original)
        counters = self.counters

        @functools.wraps(original)
        def partition(workspace: Any, *args: Any, **kwargs: Any) -> Any:
            before = dict(workspace.partition_stats)
            result = traced(workspace, *args, **kwargs)
            if self.recording:
                for kind in ("fresh", "derived", "hits"):
                    counters[f"partition.{kind}"] += workspace.partition_stats[kind] - before[kind]
            return result

        workspace_cls.partition = partition

    def _wrap_cache(self, cache_cls: type, miss: Any) -> None:
        """``get``/``put`` spans plus hit and byte counts.

        Entry sizes are read after the span closes, so the stat calls do
        not count as cache time.
        """
        traced_get = self.wrap("runtime.cache.get", cache_cls.get)
        traced_put = self.wrap("runtime.cache.put", cache_cls.put)
        counters = self.counters

        @functools.wraps(cache_cls.get)
        def get(cache: Any, key: Any) -> Any:
            value = traced_get(cache, key)
            if self.recording:
                counters["cache.gets"] += 1
                if value is not miss:
                    counters["cache.hits"] += 1
                    counters["cache.bytes_read"] += _size(cache.path_for(key))
            return value

        @functools.wraps(cache_cls.put)
        def put(cache: Any, key: Any, value: Any) -> Any:
            path = traced_put(cache, key, value)
            if self.recording:
                counters["cache.bytes_written"] += _size(path)
            return path

        cache_cls.get = get
        cache_cls.put = put

    # -- accounting ----------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Self seconds and calls per layer, counters and the window."""
        spans = self.tracer.spans
        child_time: dict[int, float] = {}
        for span in spans:
            if span.parent_id is not None:
                child_time[span.parent_id] = child_time.get(span.parent_id, 0.0) + span.duration
        layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
        for span in spans:
            entry = layers[span.name]
            entry["self_s"] += span.duration - child_time.get(span.span_id, 0.0)
            entry["calls"] += 1
        attributed = sum(entry["self_s"] for entry in layers.values())
        return {
            "window_s": self.window_s,
            "layers": layers,
            "unattributed_s": self.window_s - attributed,
            "counters": dict(self.counters),
        }


def _rebind(original: Callable[..., Any], wrapper: Callable[..., Any]) -> None:
    """Replace ``original`` in every loaded ``repro`` module that binds it."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapper)


def _size(path: Any) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0

