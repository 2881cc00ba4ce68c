"""Smoke test of the repository benchmark (``bench.py``).

Run with ``pytest benchmarks/e2e --quick``: every workload at smoke size
(300 rows, 2 s load phases, one cycle; two when traced), untraced and
traced.  Without ``--quick`` the test is skipped; full-size runs are the
benchmark's own job.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(tmp_path: Path, *args: str) -> tuple[dict, dict]:
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--quick", "--out", str(out), "--trace-dir", str(tmp_path / "traces"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(out.read_text())


@pytest.fixture(scope="module")
def untraced(quick, tmp_path_factory):
    if not quick:
        pytest.skip("smoke run of the benchmark: pass --quick")
    return _bench(tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="module")
def traced(quick, tmp_path_factory):
    if not quick:
        pytest.skip("smoke run of the benchmark: pass --quick")
    tmp_path = tmp_path_factory.mktemp("traced")
    line, document = _bench(tmp_path, "--trace", "1")
    return line, document, tmp_path / "traces"


def test_emits_the_declared_end_to_end_metrics(untraced):
    line, document = untraced
    declared = [m["name"] for m in SPEC["end_to_end"]]
    assert [r["workload"] for r in document["results"]] == WORKLOADS
    for result in document["results"]:
        assert list(result["metrics"]) == declared
        assert all(value > 0 for value in result["metrics"].values())
    assert set(line["metrics"]) == {f"{w}.{m}" for w in WORKLOADS for m in declared}


def test_outputs_are_correct_and_nothing_fails(untraced):
    line, document = untraced
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    for result in document["results"]:
        assert result["problems"] == []
        assert isinstance(result["digest"], str)  # cold == warm, every cycle


def test_compare_reports_no_regression_against_itself(untraced, tmp_path):
    _line, document = untraced
    (tmp_path / "run.json").write_text(json.dumps(document))
    for args in ([tmp_path], [tmp_path, tmp_path]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "compare.py"), *map(str, args)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("no regression") == len(WORKLOADS) * len(SPEC["end_to_end"])


def test_traced_run_accounts_for_the_end_to_end_time(traced):
    line, document, trace_root = traced
    assert line["correct"], document["results"]
    declared = [m["name"] for m in SPEC["per_layer"]]
    from repro.lint import check_obs_artifacts

    for result in document["results"]:
        layers = result["layers"]
        assert list(layers) == declared
        shares = sum(v for k, v in layers.items() if k.endswith(".share"))
        assert shares == pytest.approx(100.0, abs=1.0)
        # Spans nest: self times never add up to more than the window.
        assert layers["unattributed.share"] >= -1.0
        traces = sorted((trace_root / result["workload"]).glob("*.trace.json"))
        assert traces
        for path in traces:
            assert check_obs_artifacts(path) == []
        for cycle in result["samples"]:
            for report in cycle.get("passes", []):
                if "layers" in report:
                    summary = report["layers"]
                    attributed = sum(e["self_s"] for e in summary["layers"].values())
                    assert attributed <= summary["window_s"] * 1.01
                    assert summary["window_s"] >= report["pass_s"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
