"""Shared benchmark fixtures and reporting helpers.

Every benchmark regenerates the rows/series of one paper artifact (see
DESIGN.md section 4), asserts the reproduced values, times the computational
kernel with pytest-benchmark, and prints the reproduced table/figure data
(visible with ``pytest -s``; also regenerable standalone via
``python benchmarks/run_all.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.datasets import adult_dataset, adult_hierarchies
from repro.datasets import paper_tables
# Re-exported for the trajectory benchmarks: one percentile and one git
# revision helper for the serve bench and the pytest benchmarks alike.
from repro.serve.workload import git_rev, percentile  # noqa: F401

#: Schema id of benchmark trajectory files — must match
#: ``repro.lint.artifacts.BENCH_SCHEMA`` (ART012 validates what we emit).
BENCH_SCHEMA = "repro.bench/trajectory@1"


def pytest_addoption(parser):
    """Register ``--quick`` (CI smoke mode) and ``--bench-json`` (trajectory)."""
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="run benchmarks in smoke mode: small inputs, correctness "
        "assertions only, no throughput floors",
    )
    parser.addoption(
        "--bench-json",
        default=None,
        metavar="PATH",
        help="append this run's wall-time percentiles to the BENCH_*.json "
        "trajectory at PATH (created if missing; validated by ART012)",
    )


@pytest.fixture(scope="session")
def quick(request):
    """Whether the run is in ``--quick`` smoke mode."""
    return request.config.getoption("--quick")


@pytest.fixture(scope="session")
def bench_json(request):
    """Path of the ``--bench-json`` trajectory file, or ``None``."""
    return request.config.getoption("--bench-json")


def record_trajectory(path, suite, cases, quick):
    """Append one ``{git_rev, quick, cases}`` entry to a BENCH trajectory.

    Creates the file with the ``repro.bench/trajectory@1`` envelope if it
    does not exist; otherwise appends to its ``entries`` list so the file
    accumulates wall-time percentiles over the repo's history.  Written
    sorted and indented so trajectory diffs stay reviewable.
    """
    target = Path(path)
    payload = {"schema": BENCH_SCHEMA, "suite": suite, "entries": []}
    if target.exists():
        existing = json.loads(target.read_text(encoding="utf-8"))
        if existing.get("schema") == BENCH_SCHEMA and existing.get("suite") == suite:
            payload = existing
    payload["entries"].append(
        {"git_rev": git_rev(), "quick": bool(quick), "cases": cases}
    )
    target.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return target


def emit(title: str, lines) -> None:
    """Print one reproduced artifact block (shown under pytest -s)."""
    print(f"\n--- {title} ---")
    for line in lines:
        print(line)


@pytest.fixture(scope="session")
def table1():
    return paper_tables.table1()


@pytest.fixture(scope="session")
def generalizations():
    return paper_tables.all_generalizations()


@pytest.fixture(scope="session")
def adult_1k():
    return adult_dataset(1000, seed=7)


@pytest.fixture(scope="session")
def adult_h():
    return adult_hierarchies()
