"""The resident service: HTTP contract, concurrency, cache recovery.

These tests exercise the serve plane the way production traffic would:
real sockets, real concurrent clients, real kill-and-restart cycles.
The two load-bearing guarantees — concurrent cold requests produce
byte-identical releases to the inline path, and a restarted server
resumes from the same ``ResultCache`` with pure hits — are asserted
through the public HTTP surface only.
"""

import http.client
import inspect
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import Observation
from repro.runtime.cache import ResultCache
from repro.runtime.study import (
    ALGORITHM_FACTORIES,
    VECTOR_PROPERTIES,
    AlgorithmSpec,
    DatasetSpec,
    algorithm_key,
)
from repro.runtime.task import CacheKey
from repro.serve import ServeServer, ServerThread, ServeState
from repro.serve.query import QUERY_SHAPES, render_cell
from repro.serve.server import HttpRequest
from repro.serve.state import (
    MAX_DATASET_ROWS,
    MAX_GENETIC_EVALUATIONS,
    ServeRequestError,
)

ROWS = 80
SEED = 42
CELL = {"algorithm": "mondrian", "params": {"k": 2}}
OTHER_CELL = {"algorithm": "datafly", "params": {"k": 2}}


def _request(server, method, path, body=None, timeout=120):
    connection = http.client.HTTPConnection(
        server.host, server.port, timeout=timeout
    )
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        connection.request(
            method, path, body=payload,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _make_server(cache_dir=None, observation=None, **kwargs):
    state = ServeState(
        DatasetSpec.of("adult", rows=ROWS, seed=SEED),
        cache=None if cache_dir is None else ResultCache(cache_dir),
        seed=SEED,
    )
    return ServeServer(
        state, port=0, observation=observation or Observation(), **kwargs
    )


@pytest.fixture()
def server():
    instance = _make_server()
    thread = ServerThread(instance)
    thread.start()
    yield instance
    thread.stop()


def _inline_release(payload):
    """The batch-path release the server must reproduce byte for byte."""
    dataset, hierarchies = DatasetSpec.of(
        "adult", rows=ROWS, seed=SEED
    ).materialize()
    cell = AlgorithmSpec.of(
        payload["algorithm"], **payload["params"]
    ).with_seed(SEED)
    return cell.build().anonymize(dataset, hierarchies)


class TestHttpContract:
    def test_health(self, server):
        status, body = _request(server, "GET", "/health")
        assert status == 200
        assert body["ok"] is True
        assert body["status"] == "ok"

    def test_anonymize_cold_then_memory_warm(self, server):
        status, cold = _request(server, "POST", "/anonymize", {"algorithm": CELL})
        assert status == 200
        assert cold["source"] == "computed"
        assert cold["rows"] == ROWS
        assert cold["k"] >= 2
        status, warm = _request(server, "POST", "/anonymize", {"algorithm": CELL})
        assert status == 200
        assert warm["source"] == "memory"
        assert warm["released_fingerprint"] == cold["released_fingerprint"]

    def test_anonymize_matches_inline_path_byte_for_byte(self, server):
        status, body = _request(
            server, "POST", "/anonymize",
            {"algorithm": CELL, "include_rows": True},
        )
        assert status == 200
        inline = _inline_release(CELL)
        assert body["released_fingerprint"] == inline.released.fingerprint()
        expected_rows = [
            [render_cell(cell) for cell in row] for row in inline.released
        ]
        assert body["released_rows"] == expected_rows
        assert body["columns"] == list(inline.released.schema.names)
        assert body["k"] == inline.k()
        assert body["suppressed"] == len(inline.suppressed)

    def test_properties_matches_direct_computation(self, server):
        status, body = _request(
            server, "POST", "/properties",
            {"algorithm": CELL, "property": "equivalence-class-size"},
        )
        assert status == 200
        from repro.core.properties import equivalence_class_size

        expected = [float(v) for v in equivalence_class_size(_inline_release(CELL))]
        assert body["values"] == expected
        assert body["rows"] == ROWS

    def test_properties_index_subset(self, server):
        status, full = _request(
            server, "POST", "/properties", {"algorithm": CELL}
        )
        status, subset = _request(
            server, "POST", "/properties",
            {"algorithm": CELL, "indices": [0, 5, 2]},
        )
        assert status == 200
        assert subset["values"] == [
            full["values"][0], full["values"][5], full["values"][2]
        ]

    def test_properties_rejects_out_of_range_indices(self, server):
        status, body = _request(
            server, "POST", "/properties",
            {"algorithm": CELL, "indices": [0, ROWS + 7]},
        )
        assert status == 400
        assert "out of range" in body["error"]

    def test_compare_verdicts(self, server):
        status, body = _request(
            server, "POST", "/compare",
            {
                "algorithms": [CELL, OTHER_CELL],
                "property": "equivalence-class-size",
            },
        )
        assert status == 200
        labels = set(body["cells"])
        assert labels == {"mondrian[k=2]", "datafly[k=2]"}
        assert set(body["wins"]) == labels
        # Ordered pairs over both cells, including self-comparisons.
        pairs = {(first, second) for first, second, _ in body["relations"]}
        assert pairs == {(a, b) for a in labels for b in labels}
        verdicts = {relation for _, _, relation in body["relations"]}
        assert verdicts <= {"better", "worse", "equivalent", "incomparable"}
        self_relations = [
            relation for first, second, relation in body["relations"]
            if first == second
        ]
        assert set(self_relations) == {"equivalent"}

    def test_query_over_http(self, server):
        status, body = _request(
            server, "POST", "/query",
            {
                "algorithm": CELL,
                "query": {"shape": "groupby", "group_by": "sex", "agg": "count"},
            },
        )
        assert status == 200
        assert sum(body["result"]["groups"].values()) == ROWS

    def test_join_query_needs_other(self, server):
        status, body = _request(
            server, "POST", "/query",
            {"algorithm": CELL, "query": {"shape": "join", "on": "sex"}},
        )
        assert status == 400
        status, body = _request(
            server, "POST", "/query",
            {
                "algorithm": CELL,
                "other": OTHER_CELL,
                "query": {"shape": "join", "on": "sex"},
            },
        )
        assert status == 200
        assert body["result"]["pairs"] > 0

    def test_error_codes(self, server):
        assert _request(server, "POST", "/anonymize", {})[0] == 400
        assert _request(
            server, "POST", "/anonymize",
            {"algorithm": {"algorithm": "nope", "params": {}}},
        )[0] == 400
        assert _request(server, "GET", "/nope")[0] == 404
        assert _request(server, "GET", "/anonymize")[0] == 405
        assert _request(server, "POST", "/health")[0] == 405

    @pytest.mark.parametrize(
        "params",
        [
            {"rows": "x"},
            {"rows": -5},
            {"rows": 0},
            {"bogus": 1},
            {"seed": "s"},
            {"rows": 2.5},
            {"rows": True},
            {"seed": False},
        ],
        ids=[
            "rows-str", "rows-negative", "rows-zero", "unknown-param",
            "seed-str", "rows-float", "rows-bool", "seed-bool",
        ],
    )
    def test_malformed_dataset_params_are_400(self, server, params):
        status, body = _request(
            server, "POST", "/anonymize",
            {
                "dataset": {"provider": "adult", "params": params},
                "algorithm": CELL,
            },
        )
        assert status == 400, body
        assert "dataset.params" in body["error"] or "unknown dataset params" in body["error"]

    def test_dataset_rows_ceiling(self, server):
        def spec(rows):
            return server.state.dataset_spec(
                {"provider": "adult", "params": {"rows": rows}}
            )

        assert dict(spec(MAX_DATASET_ROWS).params) == {"rows": MAX_DATASET_ROWS}
        with pytest.raises(ServeRequestError, match="rows must be from 1"):
            spec(MAX_DATASET_ROWS + 1)

    def test_fingerprint_is_stable_per_spec(self):
        state = ServeState(
            DatasetSpec.of("adult", rows=20, seed=1), seed=SEED, max_resident=2
        )
        specs = [DatasetSpec.of("adult", rows=20, seed=s) for s in range(1, 5)]
        first = [state.fingerprint(spec) for spec in specs]
        # Asking again returns the same digest as the table's own.
        assert state.fingerprint(specs[0]) == first[0]
        assert first[0] == specs[0].materialize()[0].fingerprint()
        assert len(set(first)) == 4

    def test_one_resident_memo_bounds_releases_and_derived_results(self):
        state = ServeState(
            DatasetSpec.of("adult", rows=20, seed=1), seed=SEED, max_resident=2
        )
        spec = state.dataset_spec(None)
        cell = state.algorithm_spec(CELL)
        release, _ = state.release_for(spec, cell)
        state.summary_for(spec, cell, release)
        assert state.resident_count() == 2
        # The vector's resolution touches the release, so the summary is
        # now the least recent result and the one the bound evicts.
        state.vector_for(spec, cell, "equivalence-class-size")
        assert state.resident_count() == 2
        assert state.release_for(spec, cell)[1] == "memory"
        assert state.summary_for(spec, cell, release)[1] == "computed"

    def test_health_reports_one_resident_count(self, server):
        _request(server, "POST", "/anonymize", {"algorithm": CELL})
        status, body = _request(server, "GET", "/health")
        assert status == 200
        assert type(body["resident"]) is int and body["resident"] >= 2

    def test_malformed_json_body_is_400(self, server):
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )
        try:
            connection.request(
                "POST", "/anonymize", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert b"JSON" in response.read()
        finally:
            connection.close()

    def test_metrics_endpoint_reports_request_counters(self, server):
        _request(server, "POST", "/anonymize", {"algorithm": CELL})
        status, body = _request(server, "GET", "/metrics")
        assert status == 200
        counters = body["metrics"]["counters"]
        assert counters["serve.request.anonymize"] >= 1
        histograms = body["metrics"]["histograms"]
        assert "serve.latency_ms.anonymize" in histograms

    def test_keep_alive_reuses_one_connection(self, server):
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )
        try:
            for _ in range(3):
                connection.request("GET", "/health")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
        finally:
            connection.close()


class TestMalformedRequests:
    """Whatever a client sends to a data endpoint, the answer is 200 or a
    client error, never a 500.

    ``_dispatch`` is driven directly (no socket) over one Adult 200-row
    server.  Each field is drawn from the valid values plus junk: wrong
    JSON types, unknown names, out-of-range numbers.  ``/shutdown`` reads
    no body field, so it is not among the endpoints.  Numeric algorithm
    params other than ``k`` stay small so that the requests that are valid
    compute quickly.
    """

    @pytest.mark.parametrize(
        "params",
        [
            {"k": 0},
            {"k": "5"},
            {"kk": 5},
            {"k": [5]},
            {"k": 5, "suppression_limit": 2},
            {"k": 5.5},
            {"k": True},
            {"k": 201},
        ],
        ids=["zero", "str", "unknown", "list", "limit", "float", "bool", "above-rows"],
    )
    def test_malformed_algorithm_params_are_400(self, fuzz_server, params):
        status, body = self._post(
            fuzz_server, "/anonymize",
            {"algorithm": {"algorithm": "datafly", "params": params}},
        )
        assert status == 400, body

    def test_malformed_names_are_400(self, fuzz_server):
        cell = {"algorithm": "datafly", "params": {"k": 5}}
        for path, body in [
            ("/anonymize", {"algorithm": {"algorithm": "mondrian", "params": {"k": 10**30}}}),
            ("/anonymize", {"algorithm": {"algorithm": ["datafly"], "params": {"k": 5}}}),
            ("/anonymize", {"algorithm": cell, "dataset": {"provider": ["adult"]}}),
            ("/properties", {"algorithm": cell, "property": ["x"]}),
            ("/compare", {"algorithms": [cell, OTHER_CELL], "property": ["x"]}),
        ]:
            status, payload = self._post(fuzz_server, path, body)
            assert status == 400, (path, body, payload)

    def test_genetic_work_is_bounded(self, fuzz_server):
        big = {"k": 5, "population_size": 80, "generations": 240}
        status, payload = self._post(
            fuzz_server, "/anonymize", {"algorithm": {"algorithm": "genetic", "params": big}}
        )
        assert status == 400, payload
        assert f"bound of {MAX_GENETIC_EVALUATIONS} fitness evaluations" in payload["error"]
        status, payload = self._post(
            fuzz_server, "/anonymize", {"algorithm": {"algorithm": "genetic", "params": {"k": 5}}}
        )
        assert status == 200, payload

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(request=st.data())
    def test_generated_bodies_never_500(self, fuzz_server, request):
        path = request.draw(
            st.sampled_from(["/anonymize", "/properties", "/compare", "/query"])
        )
        body = request.draw(_request_bodies(path))
        status, payload = self._post(fuzz_server, path, body)
        assert status < 500, (path, body, payload)

    @staticmethod
    def _post(server, path, body):
        return server._dispatch(
            HttpRequest("POST", path, body=json.dumps(body).encode("utf-8"))
        )


@pytest.fixture(scope="module")
def fuzz_server():
    state = ServeState(DatasetSpec.of("adult", rows=200, seed=SEED), seed=SEED)
    return ServeServer(state, port=0, observation=Observation())


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.integers(-(10**30), 10**30)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
#: Values for an algorithm's optional params, whatever their type.
_PARAM_VALUES = (
    st.integers(-2, 12)
    | st.floats(-0.5, 1.5)
    | st.booleans()
    | st.none()
    | st.sampled_from(["sex", "age", "nope"])
)


def _param_values(parameter):
    """Mostly values of the type of the param's default, in and out of range."""
    default = parameter.default
    if isinstance(default, bool):
        typed = st.booleans()
    elif isinstance(default, int):
        typed = st.integers(-2, 12)
    elif isinstance(default, float):
        typed = st.floats(-0.5, 1.5)
    else:
        typed = _PARAM_VALUES
    return st.integers(0, 3).flatmap(lambda pick: typed if pick else _PARAM_VALUES)


def _field(valid):
    """A body field: one of the ``valid`` values, one time in eight any JSON."""
    return st.integers(0, 7).flatmap(lambda pick: valid if pick else _JSON)


@st.composite
def _cells(draw):
    """An algorithm cell: a name, ``k`` and some of the factory's own
    params, now and then an unknown param, or any JSON instead."""
    name = draw(_field(st.sampled_from(sorted(ALGORITHM_FACTORIES))))
    params = {}
    if isinstance(name, str) and name in ALGORITHM_FACTORIES:
        signature = inspect.signature(ALGORITHM_FACTORIES[name])
        for param, parameter in signature.parameters.items():
            if param == "k":
                if draw(st.integers(0, 9)):
                    params["k"] = draw(
                        _field(st.integers(1, 12) | st.integers(-2, 260)
                               | st.integers(-(10**30), 10**30))
                    )
            elif not draw(st.integers(0, 3)):
                params[param] = draw(_param_values(parameter))
    if not draw(st.integers(0, 9)):
        params[draw(st.text(max_size=4))] = draw(_JSON_SCALARS)
    cell = {"algorithm": name, "params": draw(_field(st.just(params)))}
    return draw(_field(st.just(cell)))


def _datasets():
    params = st.fixed_dictionaries(
        {},
        optional={
            "rows": _field(st.integers(-2, 250)),
            "seed": _field(st.integers(0, 3)),
            "bogus": _JSON_SCALARS,
        },
    )
    named = _field(
        st.fixed_dictionaries(
            {"provider": _field(st.sampled_from(["adult", "hospital"]))},
            optional={"params": _field(params)},
        )
    )
    # Mostly the server's default dataset, so most cells compute once.
    return st.integers(0, 3).flatmap(lambda pick: st.none() if pick else named)


def _queries():
    columns = st.sampled_from(["age", "sex", "race", "education", "nope"])
    return _field(st.fixed_dictionaries(
        {"shape": _field(st.sampled_from(QUERY_SHAPES))},
        optional={
            name: _field(columns)
            for name in ("column", "group_by", "target", "on")
        } | {
            "value": _field(st.integers(0, 90) | st.sampled_from(["Male", "*"])),
            "low": _field(st.integers(0, 90)),
            "high": _field(st.integers(0, 90)),
            "agg": _field(st.sampled_from(["count", "sum", "avg"])),
            "k": _field(st.integers(-1, 6)),
        },
    ))


def _request_bodies(path):
    optional = {
        "dataset": _datasets(),
        "property": _field(st.sampled_from(sorted(VECTOR_PROPERTIES))),
    }
    if path == "/anonymize":
        optional["include_rows"] = _JSON_SCALARS
    if path == "/properties":
        optional["indices"] = _field(st.lists(st.integers(-3, 205), max_size=4))
    if path == "/compare":
        required = {"algorithms": _field(st.lists(_cells(), max_size=3))}
    else:
        required = {"algorithm": _cells()}
    if path == "/query":
        required["query"] = _queries()
        optional["other"] = _cells()
    return st.fixed_dictionaries(required, optional=optional)


class TestConcurrency:
    def test_parallel_cold_clients_single_flight_and_byte_identical(self):
        # N clients race the same cold anonymize: exactly one compute may
        # happen, and every response must equal the inline release.
        observation = Observation()
        instance = _make_server(observation=observation)
        thread = ServerThread(instance)
        thread.start()
        try:
            results = []
            errors = []

            def hit():
                try:
                    results.append(
                        _request(
                            instance, "POST", "/anonymize",
                            {"algorithm": CELL, "include_rows": True},
                        )
                    )
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            clients = [threading.Thread(target=hit) for _ in range(6)]
            for client in clients:
                client.start()
            for client in clients:
                client.join()
            assert not errors
            assert len(results) == 6
            inline = _inline_release(CELL)
            expected_rows = [
                [render_cell(cell) for cell in row] for row in inline.released
            ]
            for status, body in results:
                assert status == 200
                assert body["released_fingerprint"] == inline.released.fingerprint()
                assert body["released_rows"] == expected_rows
            counters = observation.metrics.snapshot()["counters"]
            assert counters["serve.release.computed"] == 1
            assert counters["serve.release.memory_hit"] == 5
        finally:
            thread.stop()

    def test_kill_and_restart_resumes_from_cache_with_pure_hits(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = _make_server(cache_dir=cache_dir)
        thread = ServerThread(first)
        thread.start()
        try:
            _, cold = _request(first, "POST", "/anonymize", {"algorithm": CELL})
            assert cold["source"] == "computed"
        finally:
            thread.stop()

        observation = Observation()
        second = _make_server(cache_dir=cache_dir, observation=observation)
        thread = ServerThread(second)
        thread.start()
        try:
            _, warm = _request(second, "POST", "/anonymize", {"algorithm": CELL})
            assert warm.pop("source") == "cache"
            cold.pop("source")
            assert warm == cold
            counters = observation.metrics.snapshot()["counters"]
            assert counters.get("serve.release.computed", 0) == 0
            assert counters["serve.release.disk_hit"] == 1
            assert counters.get("serve.summary.computed", 0) == 0
            assert counters["serve.summary.disk_hit"] == 1
        finally:
            thread.stop()

    @staticmethod
    def _summary_key(state):
        cell = state.algorithm_spec(CELL)
        return CacheKey(
            dataset=state.fingerprint(state.dataset_spec(None)),
            algorithm=algorithm_key(cell),
            metric="serve.summary",
        )

    def test_truncated_summary_entry_heals(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = _make_server(cache_dir=cache_dir)
        thread = ServerThread(first)
        thread.start()
        try:
            _, cold = _request(first, "POST", "/anonymize", {"algorithm": CELL})
        finally:
            thread.stop()
        key = self._summary_key(first.state)
        entry = first.state.cache.path_for(key)
        entry.write_bytes(entry.read_bytes()[:10])

        observation = Observation()
        second = _make_server(cache_dir=cache_dir, observation=observation)
        thread = ServerThread(second)
        thread.start()
        try:
            _, healed = _request(second, "POST", "/anonymize", {"algorithm": CELL})
            counters = observation.metrics.snapshot()["counters"]
            assert counters["cache.corrupt_healed"] == 1
            assert counters["serve.summary.computed"] == 1
            assert counters["serve.release.disk_hit"] == 1
            assert healed.pop("source") == "cache"
            cold.pop("source")
            assert healed == cold
        finally:
            thread.stop()
        # The recomputed summary was written back whole.
        stored = ResultCache(cache_dir).get(key)
        assert stored == {name: cold[name] for name in stored}

    def test_restarted_server_still_returns_rows(self, tmp_path):
        cache_dir = tmp_path / "cache"
        body = {"algorithm": CELL, "include_rows": True}
        first = _make_server(cache_dir=cache_dir)
        thread = ServerThread(first)
        thread.start()
        try:
            _, cold = _request(first, "POST", "/anonymize", body)
        finally:
            thread.stop()

        second = _make_server(cache_dir=cache_dir)
        thread = ServerThread(second)
        thread.start()
        try:
            _, warm = _request(second, "POST", "/anonymize", body)
        finally:
            thread.stop()
        assert warm.pop("source") == "cache"
        cold.pop("source")
        assert len(warm["released_rows"]) == ROWS
        assert warm == cold


class TestShutdown:
    def test_shutdown_endpoint_drains_and_flushes_artifacts(self, tmp_path):
        instance = _make_server(
            observation=Observation(),
            trace_path=tmp_path / "trace.json",
            metrics_path=tmp_path / "metrics.json",
        )
        thread = ServerThread(instance)
        thread.start()
        _request(instance, "POST", "/anonymize", {"algorithm": CELL})
        status, body = _request(instance, "POST", "/shutdown")
        assert status == 200 and body["draining"] is True
        thread.stop()
        trace = json.loads((tmp_path / "trace.json").read_text())
        names = {event["name"] for event in trace["traceEvents"]}
        assert "serve.anonymize" in names
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["counters"]["serve.request.anonymize"] == 1
        from repro.lint import api

        assert api.check_obs_artifacts(tmp_path / "trace.json") == []
        assert api.check_obs_artifacts(tmp_path / "metrics.json") == []

    def test_sigterm_drains_ephemeral_port_process(self, tmp_path):
        # Full lifecycle through the CLI: ephemeral --port 0 binding
        # announced on stdout, SIGTERM leads to a graceful exit 0 with
        # the metrics artifact flushed atomically.
        metrics_path = tmp_path / "metrics.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--rows", "40", "--no-cache",
                "--metrics", str(metrics_path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            line = process.stdout.readline()
            assert "listening on http://" in line
            host, port = line.rsplit("http://", 1)[1].strip().rsplit(":", 1)
            connection = http.client.HTTPConnection(host, int(port), timeout=30)
            try:
                connection.request("GET", "/health")
                assert connection.getresponse().status == 200
            finally:
                connection.close()
            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=30)
            assert process.returncode == 0, err
            assert "shut down (SIGTERM)" in out
            assert json.loads(metrics_path.read_text())["counters"][
                "serve.request.health"
            ] == 1
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()

    def test_draining_server_rejects_reuse_and_stops(self):
        instance = _make_server(drain_timeout=2.0)
        thread = ServerThread(instance)
        thread.start()
        _request(instance, "POST", "/shutdown")
        deadline = time.monotonic() + 10
        while thread._thread is not None and thread._thread.is_alive():
            if time.monotonic() > deadline:
                pytest.fail("server did not stop after /shutdown")
            time.sleep(0.02)
        thread.stop()
        assert instance.shutdown_reason == "shutdown endpoint"
