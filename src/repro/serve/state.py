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

import inspect
from collections import OrderedDict
from typing import Any, Callable, Hashable, Mapping

from ..anonymize.engine import Anonymization
from ..obs import metrics as obs_metrics
from ..runtime.cache import MISS, ResultCache
from ..runtime.study import (
    ALGORITHM_FACTORIES,
    DATASET_PROVIDERS,
    SCALAR_MEASURES,
    VECTOR_PROPERTIES,
    AlgorithmSpec,
    DatasetSpec,
    StudyError,
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


def _canonical_items(params: Mapping[str, Any]) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted(params.items()))


def _checked_dataset_params(
    provider: str, params: Mapping[str, Any]
) -> dict[str, Any]:
    """A request's dataset params, rejected unless the provider can build
    them: known names only, each a plain ``int`` (the providers take only
    ``rows`` and ``seed``; ``bool`` is refused), and ``rows`` within
    ``1..MAX_DATASET_ROWS``.
    """
    known = inspect.signature(DATASET_PROVIDERS[provider]).parameters
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ServeRequestError(
            f"unknown dataset params {unknown} for provider {provider!r}; "
            f"choose from {sorted(known)}"
        )
    for name, value in params.items():
        if type(value) is not int:
            raise ServeRequestError(
                f"dataset.params.{name} must be an integer, "
                f"got {type(value).__name__}"
            )
    rows = params.get("rows", 1)
    if not 1 <= rows <= MAX_DATASET_ROWS:
        raise ServeRequestError(
            f"dataset.params.rows must be from 1 to {MAX_DATASET_ROWS}, "
            f"got {rows}"
        )
    return dict(params)


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
        Bound on each in-memory memo (releases; summaries, vectors and
        query/compare results); least-recently-used results fall back to
        the disk cache.
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
        self._releases = _ResidentLRU(max_resident)
        self._derived = _ResidentLRU(max_resident)
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
        provider = spec.get("provider")
        if provider not in DATASET_PROVIDERS:
            raise ServeRequestError(
                f"unknown dataset provider {provider!r}; "
                f"choose from {sorted(DATASET_PROVIDERS)}"
            )
        params = _checked_dataset_params(provider, spec.get("params", {}))
        try:
            return DatasetSpec.of(provider, **params)
        except StudyError as exc:
            raise ServeRequestError(str(exc)) from None

    def algorithm_spec(self, payload: Mapping[str, Any] | None) -> AlgorithmSpec:
        """Resolve a request's ``algorithm`` object, seeded serve-style."""
        spec = _spec_payload(payload, "algorithm")
        name = spec.get("algorithm")
        if name not in ALGORITHM_FACTORIES:
            raise ServeRequestError(
                f"unknown algorithm {name!r}; "
                f"choose from {sorted(ALGORITHM_FACTORIES)}"
            )
        try:
            cell = AlgorithmSpec.of(name, **dict(spec.get("params", {})))
        except StudyError as exc:
            raise ServeRequestError(str(exc)) from None
        return cell.with_seed(self.seed)

    def fingerprint(self, dataset_spec: DatasetSpec) -> str:
        """The content fingerprint of a named dataset (memoized on its table)."""
        return dataset_spec.materialize()[0].fingerprint()

    # -- layered resolution ------------------------------------------------

    def _resolve(
        self,
        memo: _ResidentLRU,
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
        value = memo.get(digest)
        if value is not MISS:
            obs_metrics().inc(f"{counter}.memory_hit")
            return value, "memory"
        if self.cache is not None:
            value = self.cache.get(key)
            if value is not MISS:
                memo.put(digest, value)
                obs_metrics().inc(f"{counter}.disk_hit")
                return value, "cache"
        seed = derive_seed(self.seed, f"serve:{digest}")
        value = resolve_op(op)(params, deps(), seed)
        if self.cache is not None:
            self.cache.put(key, value)
        memo.put(digest, value)
        obs_metrics().inc(f"{counter}.computed")
        return value, "computed"

    def release_for(
        self, dataset_spec: DatasetSpec, cell: AlgorithmSpec
    ) -> tuple[Anonymization, str]:
        """The anonymized release of one grid cell, plus its source layer.

        Key-compatible with the study runtime's ``anonymize`` tasks: a
        cache directory warmed by ``repro study`` serves these requests
        without recomputation, and vice versa.  The release comes back
        bound to the resident dataset.
        """
        key = CacheKey(
            dataset=self.fingerprint(dataset_spec),
            algorithm=algorithm_key(cell),
        )
        params = {
            "dataset": dataset_spec.as_payload(),
            "algorithm": cell.as_payload(),
        }
        release, source = self._resolve(
            self._releases, key, "anonymize", params, dict, "serve.release"
        )
        dataset, _ = dataset_spec.materialize()
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
            self._derived, key, "serve.summary", {}, lambda: {"release": release},
            "serve.summary",
        )

    def vector_for(
        self, dataset_spec: DatasetSpec, cell: AlgorithmSpec, prop: str
    ) -> tuple[Any, str]:
        """One per-tuple property vector of one release (Definition 1)."""
        if prop not in VECTOR_PROPERTIES:
            raise ServeRequestError(
                f"unknown property {prop!r}; "
                f"choose from {sorted(VECTOR_PROPERTIES)}"
            )
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
            self._derived, key, "measure", params,
            lambda: {"release": self.release_for(dataset_spec, cell)[0]},
            "serve.vector",
        )

    def scalar_for(
        self, dataset_spec: DatasetSpec, cell: AlgorithmSpec, measure: str
    ) -> tuple[float, str]:
        """One scalar measure of one release (grid-cell summary)."""
        if measure not in SCALAR_MEASURES:
            raise ServeRequestError(
                f"unknown measure {measure!r}; "
                f"choose from {sorted(SCALAR_MEASURES)}"
            )
        key = CacheKey(
            dataset=self.fingerprint(dataset_spec),
            algorithm=algorithm_key(cell),
            metric=measure,
        )
        params = {
            "dataset": dataset_spec.as_payload(),
            "release_task": "release",
            "kind": "scalar",
            "metric": measure,
        }
        value, source = self._resolve(
            self._derived, key, "measure", params,
            lambda: {"release": self.release_for(dataset_spec, cell)[0]},
            "serve.scalar",
        )
        return float(value), source

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
            self._derived, key, "compare", params,
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
            self._derived, key, "serve.query", {"query": dict(query)}, deps,
            "serve.query",
        )

    # -- introspection -----------------------------------------------------

    def resident_counts(self) -> dict[str, int]:
        """How many objects each in-memory memo currently holds."""
        return {
            "releases": len(self._releases),
            "derived": len(self._derived),
        }
