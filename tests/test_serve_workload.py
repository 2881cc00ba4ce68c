"""The serve request mix the e2e harness replays: plans, percentiles,
and the mix replayed against a live server."""

import http.client
import json
import threading

import pytest

from repro.lint import api
from repro.obs import Observation
from repro.runtime.cache import ResultCache
from repro.runtime.study import DatasetSpec
from repro.serve import (
    WORKLOAD_ENDPOINTS,
    ServeServer,
    ServerThread,
    ServeState,
    build_plan,
)
from repro.serve.workload import percentile

ROWS = 60
SEED = 42
CLIENTS = 4


class TestPlans:
    def test_plans_are_deterministic_per_client(self):
        assert build_plan(42, 0, 12) == build_plan(42, 0, 12)
        assert build_plan(42, 0, 12) != build_plan(42, 1, 12)
        assert build_plan(42, 0, 12) != build_plan(7, 0, 12)

    def test_full_plan_opens_with_every_endpoint(self):
        plan = build_plan(42, 3, len(WORKLOAD_ENDPOINTS))
        assert [endpoint for endpoint, _, _ in plan] == list(WORKLOAD_ENDPOINTS)

    def test_every_query_shape_is_in_the_endpoint_mix(self):
        shapes = {
            endpoint.split(":", 1)[1]
            for endpoint in WORKLOAD_ENDPOINTS
            if endpoint.startswith("query:")
        }
        assert shapes == {"point", "range", "groupby", "topk", "distinct", "join"}

    def test_join_requests_carry_a_distinct_other_cell(self):
        for index in range(4):
            for endpoint, path, body in build_plan(42, index, 30):
                if endpoint == "query:join":
                    assert path == "/query"
                    assert body["other"] != body["algorithm"]

    def test_plan_rejects_non_positive_requests(self):
        with pytest.raises(ValueError):
            build_plan(42, 0, 0)


class TestPercentile:
    def test_single_sample(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_interpolates(self):
        assert percentile([0.0, 10.0], 0.5) == 5.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0
        assert percentile([4.0, 3.0, 1.0, 2.0], 0.0) == 1.0


def _plans():
    return [
        build_plan(SEED, index, len(WORKLOAD_ENDPOINTS))
        for index in range(CLIENTS)
    ]


def _replay(cache_dir=None, trace_path=None, metrics_path=None):
    """Serve the request mix to ``CLIENTS`` keep-alive clients at once.

    Returns the non-2xx/transport failures and the server's counters.
    """
    observation = Observation()
    state = ServeState(
        DatasetSpec.of("adult", rows=ROWS, seed=SEED),
        cache=None if cache_dir is None else ResultCache(cache_dir),
        seed=SEED,
    )
    instance = ServeServer(
        state, port=0, observation=observation,
        trace_path=trace_path, metrics_path=metrics_path,
    )
    failures = []

    def client(plan):
        connection = http.client.HTTPConnection(
            instance.host, instance.port, timeout=120
        )
        try:
            for endpoint, path, body in plan:
                connection.request(
                    "POST", path, body=json.dumps(body).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                response.read()
                if not 200 <= response.status < 300:
                    failures.append(f"{endpoint}: HTTP {response.status}")
        except (http.client.HTTPException, OSError) as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
        finally:
            connection.close()

    server_thread = ServerThread(instance)
    server_thread.start()
    try:
        threads = [
            threading.Thread(target=client, args=(plan,)) for plan in _plans()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        counters = observation.metrics.snapshot()["counters"]
    finally:
        server_thread.stop()
    return failures, counters


class TestBenchCommand:
    """The request mix the e2e benchmark replays, over four clients."""

    def test_cold_then_warm_expect_cached(self, tmp_path):
        # The plans name 3 distinct cells: a cold server computes each
        # once, a restarted server on the same store recomputes nothing,
        # and a server on an empty store has to compute them all again.
        cells = {
            json.dumps(cell, sort_keys=True)
            for plan in _plans()
            for _, _, body in plan
            for cell in [body.get("algorithm"), body.get("other"),
                         *body.get("algorithms", ())]
            if cell is not None
        }
        assert len(cells) == 3
        # Each distinct /anonymize cell computes its summary once.
        summaries = {
            json.dumps(body["algorithm"], sort_keys=True)
            for plan in _plans()
            for endpoint, _, body in plan
            if endpoint == "anonymize"
        }

        cache_dir = tmp_path / "cache"
        failures, cold = _replay(cache_dir=cache_dir)
        assert failures == []
        assert cold["serve.release.computed"] == 3
        assert cold["serve.summary.computed"] == len(summaries)

        failures, warm = _replay(cache_dir=cache_dir)
        assert failures == []
        for plane in ("release", "summary", "vector", "compare", "query"):
            assert warm.get(f"serve.{plane}.computed", 0) == 0, plane
        assert warm["serve.release.disk_hit"] >= 1
        assert warm["serve.summary.disk_hit"] == len(summaries)

        failures, empty = _replay(cache_dir=tmp_path / "cold")
        assert failures == []
        assert empty["serve.release.computed"] == 3

    def test_bench_exports_obs_artifacts(self, tmp_path):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        failures, _ = _replay(trace_path=trace, metrics_path=metrics)
        assert failures == []
        assert api.check_obs_artifacts(trace) == []
        assert api.check_obs_artifacts(metrics) == []
        counters = json.loads(metrics.read_text())["counters"]
        for endpoint in ("anonymize", "properties", "compare", "query"):
            assert counters[f"serve.request.{endpoint}"] >= CLIENTS
