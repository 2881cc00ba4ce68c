"""The serve request mix the e2e harness replays.

``benchmarks/e2e/bench.py`` drives ``repro serve`` with this mix for its
``serve-4k`` workload: ``anonymize``, ``properties``, ``compare`` and all
six ``query`` shapes, phrased over the Adult release schema.

Client plans are deterministic: client *i* of a run seeded ``s`` always
issues the same request sequence (seeded via
:func:`~repro.runtime.task.derive_seed`), so two passes against the same
cache directory replay an identical workload — which is what makes the
harness's warm-pass and pinned-digest checks meaningful.
"""

from __future__ import annotations

from random import Random
from typing import Any

from ..runtime.task import derive_seed

#: Endpoints the mixed workload exercises, in plan-seeding order.
WORKLOAD_ENDPOINTS = (
    "anonymize",
    "properties",
    "compare",
    "query:point",
    "query:range",
    "query:groupby",
    "query:topk",
    "query:distinct",
    "query:join",
)

#: Algorithm cells the workload rotates through (modest k values so a
#: cold pass stays quick; the cache makes every later pass free).
WORKLOAD_CELLS = (
    {"algorithm": "samarati", "params": {"k": 2}},
    {"algorithm": "mondrian", "params": {"k": 2}},
    {"algorithm": "datafly", "params": {"k": 2}},
)

#: Query payloads per shape, phrased over the Adult release schema.
_QUERY_TEMPLATES: dict[str, dict[str, Any]] = {
    "point": {"shape": "point", "column": "sex", "value": "Female"},
    "range": {"shape": "range", "column": "age", "low": 20, "high": 40},
    "groupby": {"shape": "groupby", "group_by": "workclass", "agg": "count"},
    "topk": {"shape": "topk", "column": "education", "k": 3},
    "distinct": {"shape": "distinct", "column": "native-country"},
    "join": {"shape": "join", "on": "sex"},
}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of a non-empty sample."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _request_payload(endpoint: str, rng: Random) -> tuple[str, dict[str, Any]]:
    """The ``(path, body)`` of one workload request."""
    cell = rng.choice(WORKLOAD_CELLS)
    if endpoint == "anonymize":
        return "/anonymize", {"algorithm": cell}
    if endpoint == "properties":
        return "/properties", {
            "algorithm": cell,
            "property": rng.choice(
                ("equivalence-class-size", "breach-probability")
            ),
        }
    if endpoint == "compare":
        first, second = rng.sample(WORKLOAD_CELLS, 2)
        return "/compare", {
            "algorithms": [first, second],
            "property": "equivalence-class-size",
        }
    _prefix, _, shape = endpoint.partition(":")
    body: dict[str, Any] = {
        "algorithm": cell,
        "query": dict(_QUERY_TEMPLATES[shape]),
    }
    if shape == "join":
        others = [item for item in WORKLOAD_CELLS if item != cell]
        body["other"] = rng.choice(others)
    return "/query", body


def build_plan(
    seed: int, client_index: int, requests: int
) -> list[tuple[str, str, dict[str, Any]]]:
    """Client ``client_index``'s deterministic request plan.

    Returns ``requests`` triples of ``(endpoint, path, body)``.  The plan
    opens with one request per workload endpoint (so even the smallest
    plan covers all six query shapes), then fills with a seeded mix.
    """
    if requests < 1:
        raise ValueError(f"requests must be positive, got {requests}")
    rng = Random(derive_seed(seed, f"serve-client:{client_index}"))
    endpoints = list(WORKLOAD_ENDPOINTS[:requests])
    while len(endpoints) < requests:
        endpoints.append(rng.choice(WORKLOAD_ENDPOINTS))
    plan = []
    for endpoint in endpoints:
        path, body = _request_payload(endpoint, rng)
        plan.append((endpoint, path, body))
    return plan
