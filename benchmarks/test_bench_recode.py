"""Recode+measure throughput: row plane vs columnar plane vs numpy kernels.

Sweeps the full generalization lattice of a three-attribute Adult QI
(age × education × marital-status, 72 nodes), counting k-anonymity
violations at every node — the inner loop of Samarati/Incognito/optimal
searches.  Three implementations are raced and pinned against each other
node-for-node:

* the **row plane** groups generalized tuples through a dict per node
  (the pre-columnar implementation);
* the **columnar plane** on the pure-python kernel backend —
  :class:`~repro.anonymize.algorithms.base.RecodingWorkspace` with
  interned codes, level tables and class sizes counted straight from
  the packed keys;
* the same workspace on the **numpy kernel backend** (when installed).

At the largest N the columnar plane must clear a 5x speedup over the row
plane, and the numpy backend a further 5x over the pure-python columnar
plane.  A second, numpy-gated benchmark runs the scale tier: the full
72-node sweep on 1M generated rows, timed separately from generation +
interning, with a single-digit-second wall-clock contract.

``--quick`` (smoke mode, used by CI) shrinks the sweep to one small N,
caps ``repeats`` at 1, drops the throughput floors and skips the scale
tier — it verifies agreement, not speed.

With ``--bench-json PATH`` the run also appends its per-N wall-time
percentiles (p50/p95 over the repeats) to the ``BENCH_recode.json``
trajectory at PATH, so performance history is diffable in review and
validated by the ART012 artifact checker; cases name the kernel backend
that produced them.
"""

import time

import pytest

from repro.anonymize.algorithms.base import RecodingWorkspace
from repro.datasets import adult_dataset, adult_hierarchies
from repro.datasets.schema import AttributeRole
from repro.kernels import HAVE_NUMPY, backend_name, force_backend
from conftest import emit, percentile, record_trajectory

QI = ("age", "education", "marital-status")
K = 5
FULL_SIZES = [1000, 5000, 30000]
QUICK_SIZES = [300]
SPEEDUP_FLOOR = 5.0
KERNEL_SPEEDUP_FLOOR = 5.0
REPEATS = 3
SCALE_ROWS = 1_000_000
SCALE_SWEEP_BUDGET_S = 9.9


def _three_qi(size: int):
    data = adult_dataset(size, seed=7)
    roles = {
        name: AttributeRole.INSENSITIVE
        for name in data.schema.quasi_identifier_names
        if name not in QI
    }
    return data.with_roles(roles)


def _row_plane_sweep(data, hierarchies, nodes):
    """Violation counts per node via per-row generalized-tuple grouping."""
    columns = {}
    for name in QI:
        hierarchy = hierarchies[name]
        raw = data.column(name)
        for level in range(hierarchy.height + 1):
            columns[(name, level)] = [
                hierarchy.generalize(value, level)  # lint: disable=REP008
                for value in raw
            ]
    counts = []
    for node in nodes:
        keys = list(zip(*(columns[(name, level)] for name, level in zip(QI, node))))
        sizes: dict = {}
        for key in keys:
            sizes[key] = sizes.get(key, 0) + 1
        counts.append(sum(1 for key in keys if sizes[key] < K))
    return counts


def _columnar_sweep(data, hierarchies, nodes):
    # Each sweep (every repeat, every backend) counts every node: empty the
    # table's verdict store, which would otherwise answer it from the last.
    data.columns().lattice_memo.clear()
    workspace = RecodingWorkspace(data, hierarchies)
    return [workspace.violation_count(node, K) for node in nodes], workspace


def _timed_columnar(data, hierarchies, nodes, repeats):
    """(counts, wall times, last workspace) over ``repeats`` fresh sweeps."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        counts, workspace = _columnar_sweep(data, hierarchies, nodes)
        times.append(time.perf_counter() - start)
    return counts, times, workspace


def test_bench_recode_lattice_sweep(benchmark, quick, bench_json):
    hierarchies = adult_hierarchies()
    sizes = QUICK_SIZES if quick else FULL_SIZES
    repeats = 1 if quick else REPEATS
    backends = ["python"] + (["numpy"] if HAVE_NUMPY else [])

    def sweep():
        results = []
        for size in sizes:
            data = _three_qi(size)
            nodes = list(
                RecodingWorkspace(data, hierarchies).lattice.nodes()
            )
            start = time.perf_counter()
            row_counts = _row_plane_sweep(data, hierarchies, nodes)
            row_elapsed = time.perf_counter() - start
            per_backend = {}
            for name in backends:
                with force_backend(name):
                    counts, times, workspace = _timed_columnar(
                        data, hierarchies, nodes, repeats
                    )
                assert row_counts == counts, (
                    f"row and columnar({name}) planes disagree at N={size}"
                )
                per_backend[name] = (times, workspace)
            results.append((size, len(nodes), row_elapsed, per_backend))
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    active = backends[-1]

    if bench_json:
        cases = [
            {
                "n": size,
                "repeats": repeats,
                "p50_wall_s": round(percentile(per_backend[active][0], 0.50), 6),
                "p95_wall_s": round(percentile(per_backend[active][0], 0.95), 6),
                "plane_equivalent": True,
                "kernel": active,
            }
            for size, _, _, per_backend in results
        ]
        record_trajectory(bench_json, "recode", cases, quick)

    lines = [
        f"{'N':>7}  {'nodes':>5}  {'row rows/s':>12}  {'col-py rows/s':>13}  "
        f"{'col-np rows/s':>13}"
    ]
    for size, node_count, row_elapsed, per_backend in results:
        swept = size * node_count
        python_p50 = percentile(per_backend["python"][0], 0.50)
        numpy_cell = (
            f"{swept / percentile(per_backend['numpy'][0], 0.50):>13.0f}"
            if "numpy" in per_backend
            else f"{'absent':>13}"
        )
        lines.append(
            f"{size:>7}  {node_count:>5}  {swept / row_elapsed:>12.0f}  "
            f"{swept / python_p50:>13.0f}  {numpy_cell}"
        )
    stats = results[-1][3][active][1].partition_stats
    emit(f"recode+measure lattice sweep, k={K}, backend={active}", lines)

    # Verdicts read class sizes straight from the packed keys: the sweep
    # must not build a single row partition.
    assert stats["fresh"] == stats["derived"] == stats["hits"] == 0
    if not quick:
        size, _, row_elapsed, per_backend = results[-1]
        active_p50 = percentile(per_backend[active][0], 0.50)
        speedup = row_elapsed / active_p50
        assert speedup >= SPEEDUP_FLOOR, (
            f"columnar plane {speedup:.1f}x over row plane at N={size}; "
            f"floor is {SPEEDUP_FLOOR}x"
        )
        if "numpy" in per_backend:
            kernel_speedup = percentile(
                per_backend["python"][0], 0.50
            ) / percentile(per_backend["numpy"][0], 0.50)
            assert kernel_speedup >= KERNEL_SPEEDUP_FLOOR, (
                f"numpy kernels {kernel_speedup:.1f}x over pure-python "
                f"columnar at N={size}; floor is {KERNEL_SPEEDUP_FLOOR}x"
            )


@pytest.mark.skipif(not HAVE_NUMPY, reason="the 1M scale tier needs the numpy kernels")
def test_bench_recode_scale_tier(benchmark, quick, bench_json):
    """Full-lattice k-violation sweep on 1M generated rows.

    Generation + interning are timed separately from the sweep: the
    single-digit-second contract covers the measurement inner loop, which
    a lattice search re-runs per node, not the one-off dataset build.
    One full cold sweep runs before the timed repeats and is reported as
    its own number, so the p50/p95 repeats are all warm.  The pure-python
    backend replays the sweep once and must agree node-for-node — the
    scale tier's plane-equivalence witness.
    """
    if quick:
        pytest.skip("scale tier is excluded from --quick smoke runs")
    hierarchies = adult_hierarchies()

    def scale_sweep():
        start = time.perf_counter()
        data = _three_qi(SCALE_ROWS)
        nodes = list(RecodingWorkspace(data, hierarchies).lattice.nodes())
        # Touch every QI partition once so interning and level tables are
        # built before any sweep.
        _columnar_sweep(data, hierarchies, nodes[:1])
        build_elapsed = time.perf_counter() - start
        cold_counts, (cold_elapsed,), _ = _timed_columnar(
            data, hierarchies, nodes, 1
        )
        counts, times, workspace = _timed_columnar(
            data, hierarchies, nodes, REPEATS
        )
        assert counts == cold_counts, "cold and warm sweeps disagree"
        with force_backend("python"):
            python_counts, _ = _columnar_sweep(data, hierarchies, nodes)
        assert counts == python_counts, "backends disagree at the scale tier"
        return build_elapsed, cold_elapsed, len(nodes), times, workspace

    build_elapsed, cold_elapsed, node_count, times, workspace = benchmark.pedantic(
        scale_sweep, rounds=1, iterations=1
    )

    if bench_json:
        case = {
            "n": SCALE_ROWS,
            "repeats": REPEATS,
            "p50_wall_s": round(percentile(times, 0.50), 6),
            "p95_wall_s": round(percentile(times, 0.95), 6),
            "cold_wall_s": round(cold_elapsed, 6),
            "plane_equivalent": True,
            "kernel": backend_name(),
        }
        record_trajectory(bench_json, "recode", [case], quick)

    p50 = percentile(times, 0.50)
    stats = workspace.partition_stats
    emit(
        f"scale tier: full-lattice sweep at N={SCALE_ROWS}, k={K}",
        [
            f"build (generate+intern): {build_elapsed:.2f}s",
            f"cold sweep (excluded from p50/p95): {cold_elapsed:.2f}s",
            f"sweep over {node_count} nodes: p50 {p50:.2f}s "
            f"({SCALE_ROWS * node_count / p50:,.0f} rows/s)",
        ],
    )
    assert stats["fresh"] == stats["derived"] == stats["hits"] == 0
    assert p50 <= SCALE_SWEEP_BUDGET_S, (
        f"1M full-lattice sweep took p50 {p50:.2f}s; the scale-tier "
        f"contract is single-digit seconds (<= {SCALE_SWEEP_BUDGET_S}s)"
    )
