"""Resident server state: datasets, releases and the result cache.

A :class:`ServeState` is what makes ``repro serve`` a *service* instead of
a script: the workload datasets, their columnar views, every anonymized
release and every derived artifact (property vectors, comparator verdicts,
query results) stay resident in memory between requests, backed by the
same content-addressed :class:`~repro.runtime.cache.ResultCache` the study
runtime memoizes into.  A warm request never recomputes: resolution walks

    in-memory memo  →  on-disk cache  →  registered op

and every layer is keyed by the *same* :class:`~repro.runtime.task.CacheKey`
the batch runtime uses, so a server pointed at a study's ``--cache-dir``
serves that study's results without recomputing a single cell — and a
restarted server resumes from disk with 100% hits.

Request handlers resolve through the registered task operations
(``anonymize``, ``measure``, ``compare``, ``serve.summary``,
``serve.query``) — the same ops the study executor runs inline or on its
process pool.

Seeds follow the study convention: algorithm specs that accept a ``seed``
get one derived from the server's study seed with
:func:`~repro.runtime.task.derive_seed`, so serve-side cache keys are
bit-compatible with ``repro study --seed`` runs.
"""

from __future__ import annotations

import functools
import inspect
from collections import OrderedDict
from typing import Any, Callable, Hashable, Mapping

from ..anonymize.algorithms.genetic import GeneticAnonymizer
from ..anonymize.engine import Anonymization
from ..obs import metrics as obs_metrics
from ..runtime.cache import MISS, ResultCache
from ..runtime.study import (
    ALGORITHM_FACTORIES,
    DATASET_PROVIDERS,
    VECTOR_PROPERTIES,
    AlgorithmSpec,
    DatasetSpec,
    algorithm_key,
)
from ..runtime.task import (
    CacheKey,
    canonical_json,
    derive_seed,
    register_op,
    resolve_op,
)


class ServeRequestError(ValueError):
    """Raised for malformed request payloads (a client error, HTTP 400)."""


#: Most ``rows`` a request's dataset may name: the 1M-row scale tier.  Tables
#: stay resident only in the study runtime's ``DATASET_MEMO_SIZE`` LRU, each
#: with its memoized fingerprint.
MAX_DATASET_ROWS = 1_000_000

#: Most fitness evaluations (``population_size × generations``) one request
#: may ask of ``genetic``: its default's 40 × 60.  A handler runs in the
#: event loop, so a bigger search would stall every client.
MAX_GENETIC_EVALUATIONS = 40 * 60


class _ResidentLRU:
    """A bounded insertion-refreshing memo for resident result objects,
    keyed by cache digest."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._items: OrderedDict[Hashable, Any] = OrderedDict()

    def get(self, key: Hashable) -> Any:
        """The resident value under ``key``, or :data:`MISS`."""
        if key not in self._items:
            return MISS
        self._items.move_to_end(key)
        return self._items[key]

    def put(self, key: Hashable, value: Any) -> None:
        """Make ``value`` resident, evicting the least-recent beyond capacity."""
        self._items[key] = value
        self._items.move_to_end(key)
        while len(self._items) > self.capacity:
            self._items.popitem(last=False)
            obs_metrics().inc("serve.resident.evict")

    def __len__(self) -> int:
        return len(self._items)


#: A constructor annotation's type name -> the JSON-decoded types a request
#: may send for it.  ``bool`` is never an integer; an integer is a float.
_JSON_TYPES: dict[str, tuple[type, ...]] = {
    "int": (int,),
    "float": (float, int),
    "bool": (bool,),
    "str": (str,),
    "None": (type(None),),
}


def _json_types(parameter: inspect.Parameter) -> tuple[type, ...]:
    """The types a request may send for ``parameter``: read off its
    annotation (``int | None`` allows both), else off its default's type.
    Empty when no JSON value fits, such as a callable."""
    annotation = parameter.annotation
    if annotation is inspect.Parameter.empty:
        annotation = type(parameter.default)
    text = annotation.__name__ if isinstance(annotation, type) else str(annotation)
    allowed: tuple[type, ...] = ()
    for part in text.split("|"):
        allowed += _JSON_TYPES.get(part.strip(), ())
    return allowed


@functools.lru_cache(maxsize=None)
def _param_types(factory: Callable[..., Any]) -> dict[str, tuple[type, ...]]:
    """``factory``'s param names -> their JSON types (inspected once each)."""
    parameters = inspect.signature(factory).parameters
    return {name: _json_types(parameter) for name, parameter in parameters.items()}


def _checked_params(
    field: str, factory: Callable[..., Any], params: Mapping[str, Any]
) -> dict[str, Any]:
    """A request's constructor params, rejected unless ``factory`` takes
    them: known names only, each of a JSON type its signature allows."""
    known = _param_types(factory)
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ServeRequestError(
            f"unknown {field} params {unknown}; choose from {sorted(known)}"
        )
    for name, value in params.items():
        allowed = known[name]
        if type(value) not in allowed:
            expected = " or ".join(kind.__name__ for kind in allowed) or "nothing"
            raise ServeRequestError(
                f"{field}.params.{name} must be {expected}, "
                f"got {type(value).__name__}"
            )
    return dict(params)


def _checked_range(field: str, value: int, top: int) -> None:
    if not 1 <= value <= top:
        raise ServeRequestError(f"{field} must be from 1 to {top}, got {value}")


def _checked_name(field: str, name: Any, known: Mapping[str, Any]) -> str:
    """``name`` when it is one of ``known``'s keys, else a client error."""
    if not isinstance(name, str) or name not in known:
        raise ServeRequestError(
            f"unknown {field} {name!r}; choose from {sorted(known)}"
        )
    return name


def _spec_payload(spec: Mapping[str, Any] | None, field: str) -> dict[str, Any]:
    if spec is None:
        raise ServeRequestError(f"request requires a {field!r} object")
    if not isinstance(spec, Mapping):
        raise ServeRequestError(f"request field {field!r} must be a JSON object")
    params = spec.get("params", {})
    if not isinstance(params, Mapping):
        raise ServeRequestError(f"{field}.params must be a JSON object")
    return {key: value for key, value in spec.items()}


@register_op("serve.summary")
def _op_serve_summary(
    params: Mapping[str, Any], deps: Mapping[str, Any], seed: int
) -> dict[str, Any]:
    """Registered op behind the ``/anonymize`` summary fields.

    ``deps['release']`` is the bound release; the op builds its class
    partition (for ``k``) and hashes its released table once, so the
    cached summary spares every later request both.
    """
    release = deps["release"]
    return {
        "rows": len(release),
        "k": release.k(),
        "suppressed": len(release.suppressed),
        "levels": release.levels,
        "released_fingerprint": release.released.fingerprint(),
    }


class ServeState:
    """All state one ``repro serve`` process keeps resident.

    Parameters
    ----------
    default_dataset:
        The workload requests fall back to when they name no dataset;
        materialized (rows + hierarchies) and fingerprinted at startup.
    cache:
        Content-addressed store shared with the study runtime; ``None``
        disables durable memoization (memory-only).
    seed:
        Study seed for the serve plane; algorithm seeds derive from it
        exactly as ``repro study`` derives them.
    max_resident:
        Bound on the resident results held in memory (releases,
        summaries, vectors and query/compare results); least-recently-used
        results fall back to the disk cache.
    """

    def __init__(
        self,
        default_dataset: DatasetSpec,
        cache: ResultCache | None = None,
        seed: int = 42,
        max_resident: int = 256,
    ):
        self.cache = cache
        self.seed = seed
        self._default_dataset = default_dataset
        # One memo for every resolved value: release keys carry no metric
        # and every derived key carries one, so no two kinds collide.
        self._resident = _ResidentLRU(max_resident)
        # Materialize and fingerprint the default workload now: startup pays
        # the build cost once, requests find the table resident.  Its
        # columnar view is interned by the first release that needs it.
        self.fingerprint(default_dataset)

    # -- request-payload resolution ---------------------------------------

    def dataset_spec(self, payload: Mapping[str, Any] | None) -> DatasetSpec:
        """Resolve a request's ``dataset`` object (default when omitted)."""
        if payload is None:
            return self._default_dataset
        spec = _spec_payload(payload, "dataset")
        provider = _checked_name("dataset provider", spec.get("provider"), DATASET_PROVIDERS)
        params = _checked_params(
            "dataset", DATASET_PROVIDERS[provider], spec.get("params", {})
        )
        _checked_range("dataset.params.rows", params.get("rows", 1), MAX_DATASET_ROWS)
        return DatasetSpec.of(provider, **params)

    def algorithm_spec(self, payload: Mapping[str, Any] | None) -> AlgorithmSpec:
        """Resolve a request's ``algorithm`` object, seeded serve-style."""
        spec = _spec_payload(payload, "algorithm")
        name = _checked_name("algorithm", spec.get("algorithm"), ALGORITHM_FACTORIES)
        params = _checked_params(
            "algorithm", ALGORITHM_FACTORIES[name], spec.get("params", {})
        )
        if "k" in params:
            _checked_range("algorithm.params.k", params["k"], MAX_DATASET_ROWS)
        cell = AlgorithmSpec.of(name, **params).with_seed(self.seed)
        try:
            anonymizer = cell.build()
        except (TypeError, ValueError) as exc:
            raise ServeRequestError(f"algorithm {cell.label}: {exc}") from None
        if isinstance(anonymizer, GeneticAnonymizer):
            work = anonymizer.population_size * anonymizer.generations
            if work > MAX_GENETIC_EVALUATIONS:
                raise ServeRequestError(
                    f"algorithm {cell.label}: population_size × generations = "
                    f"{work} exceeds the bound of {MAX_GENETIC_EVALUATIONS} "
                    "fitness evaluations"
                )
        return cell

    def fingerprint(self, dataset_spec: DatasetSpec) -> str:
        """The content fingerprint of a named dataset (memoized on its table)."""
        return dataset_spec.materialize()[0].fingerprint()

    # -- layered resolution ------------------------------------------------

    def _resolve(
        self,
        key: CacheKey,
        op: str,
        params: Mapping[str, Any],
        deps: Callable[[], Mapping[str, Any]],
        counter: str,
    ) -> tuple[Any, str]:
        """Resolve one value through memo → disk cache → registered op.

        ``deps`` builds the op's inputs and is called only when the op
        must run, so a resident or stored answer resolves no release.
        Returns ``(value, source)`` with ``source`` one of ``"memory"``,
        ``"cache"`` or ``"computed"`` — the per-layer counters behind the
        serve plane's hit-rate metrics.
        """
        digest = key.digest()
        value = self._resident.get(digest)
        if value is not MISS:
            obs_metrics().inc(f"{counter}.memory_hit")
            return value, "memory"
        if self.cache is not None:
            value = self.cache.get(key)
            if value is not MISS:
                self._resident.put(digest, value)
                obs_metrics().inc(f"{counter}.disk_hit")
                return value, "cache"
        seed = derive_seed(self.seed, f"serve:{digest}")
        value = resolve_op(op)(params, deps(), seed)
        if self.cache is not None:
            self.cache.put(key, value)
        self._resident.put(digest, value)
        obs_metrics().inc(f"{counter}.computed")
        return value, "computed"

    def release_for(
        self, dataset_spec: DatasetSpec, cell: AlgorithmSpec
    ) -> tuple[Anonymization, str]:
        """The anonymized release of one grid cell, plus its source layer.

        Key-compatible with the study runtime's ``anonymize`` tasks: a
        cache directory warmed by ``repro study`` serves these requests
        without recomputation, and vice versa.  The release comes back
        bound to the resident dataset.  A ``k`` above the table's row count
        is a client error.
        """
        dataset, _ = dataset_spec.materialize()
        k = dict(cell.params).get("k", 1)
        if k > len(dataset):
            raise ServeRequestError(
                f"algorithm.params.k={k} exceeds the dataset's {len(dataset)} rows"
            )
        key = CacheKey(
            dataset=self.fingerprint(dataset_spec),
            algorithm=algorithm_key(cell),
        )
        params = {
            "dataset": dataset_spec.as_payload(),
            "algorithm": cell.as_payload(),
        }
        release, source = self._resolve(key, "anonymize", params, dict, "serve.release")
        return release.bind(dataset), source

    def summary_for(
        self, dataset_spec: DatasetSpec, cell: AlgorithmSpec, release: Anonymization
    ) -> tuple[dict[str, Any], str]:
        """The ``/anonymize`` summary of one release, plus its source layer.

        Rows, achieved k, suppressed count, levels and the released
        table's fingerprint, resolved like every derived answer — so a
        warm request builds no partition and hashes no released table.
        ``release`` is the cell's bound release from :meth:`release_for`,
        which the endpoint resolves once for its own ``source`` and rows.
        """
        key = CacheKey(
            dataset=self.fingerprint(dataset_spec),
            algorithm=algorithm_key(cell),
            metric="serve.summary",
        )
        return self._resolve(
            key, "serve.summary", {}, lambda: {"release": release}, "serve.summary"
        )

    def vector_for(
        self, dataset_spec: DatasetSpec, cell: AlgorithmSpec, prop: str
    ) -> tuple[Any, str]:
        """One per-tuple property vector of one release (Definition 1)."""
        _checked_name("property", prop, VECTOR_PROPERTIES)
        key = CacheKey(
            dataset=self.fingerprint(dataset_spec),
            algorithm=algorithm_key(cell),
            metric=prop,
        )
        params = {
            "dataset": dataset_spec.as_payload(),
            "release_task": "release",
            "kind": "vector",
            "metric": prop,
        }
        return self._resolve(
            key, "measure", params,
            lambda: {"release": self.release_for(dataset_spec, cell)[0]},
            "serve.vector",
        )

    def compare_for(
        self,
        dataset_spec: DatasetSpec,
        cells: tuple[AlgorithmSpec, ...],
        prop: str,
    ) -> tuple[dict[str, Any], str]:
        """Section-5 comparator verdicts between the named releases.

        The result is the ``compare`` op's payload — ordered-pair
        dominance relations plus win counts — cached under the same
        family key a study's compare tasks use.
        """
        _checked_name("property", prop, VECTOR_PROPERTIES)
        if len(cells) < 2:
            raise ServeRequestError("compare requires at least two algorithms")
        labels = [cell.label for cell in cells]
        if len(set(labels)) != len(labels):
            raise ServeRequestError("compare requires distinct algorithm cells")
        family_key = canonical_json([cell.as_payload() for cell in cells])
        key = CacheKey(
            dataset=self.fingerprint(dataset_spec),
            algorithm=family_key,
            metric=f"compare:{prop}",
        )
        params = {
            "property": prop,
            "order": labels,
            "labels": {label: label for label in labels},
        }
        return self._resolve(
            key, "compare", params,
            lambda: {
                cell.label: self.vector_for(dataset_spec, cell, prop)[0]
                for cell in cells
            },
            "serve.compare",
        )

    def query_for(
        self,
        dataset_spec: DatasetSpec,
        cell: AlgorithmSpec,
        query: Mapping[str, Any],
        other: AlgorithmSpec | None = None,
    ) -> tuple[dict[str, Any], str]:
        """One workload query answered over a released table.

        ``other`` names the second release of a ``join``.  Results are
        cached under the query's canonical JSON, so repeated workload
        passes are pure lookups.
        """
        query_algorithm = algorithm_key(cell)
        if other is not None:
            query_algorithm = canonical_json(
                [cell.as_payload(), other.as_payload()]
            )

        def deps() -> dict[str, Any]:
            releases = {"release": self.release_for(dataset_spec, cell)[0]}
            if other is not None:
                releases["other"] = self.release_for(dataset_spec, other)[0]
            return releases

        key = CacheKey(
            dataset=self.fingerprint(dataset_spec),
            algorithm=query_algorithm,
            metric=f"serve.query:{canonical_json(dict(query))}",
        )
        return self._resolve(
            key, "serve.query", {"query": dict(query)}, deps, "serve.query"
        )

    # -- introspection -----------------------------------------------------

    def resident_count(self) -> int:
        """How many resolved results the in-memory memo currently holds."""
        return len(self._resident)
