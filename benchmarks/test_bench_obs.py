"""Observability overhead: the null path must be effectively free.

Times the lattice sweep of the recode benchmark three ways — untraced
(the null observation, the production default), under an enabled
observation, and untraced again — and reports per-path throughput plus
the null path's overhead versus a pre-instrumentation baseline measured
by inlining the counters away.  The acceptance bar of the observability
PR is a ≤5% untraced overhead; the enabled path may cost more (it
allocates spans), but is reported so regressions are visible.

``--quick`` shrinks the workload and drops the overhead floor — it
verifies both paths agree, not throughput.
"""

import time

from repro.anonymize.algorithms.base import RecodingWorkspace
from repro.datasets import adult_dataset, adult_hierarchies
from repro.datasets.schema import AttributeRole
from repro.obs import Observation, observing
from conftest import emit

QI = ("age", "education", "marital-status")
K = 5
FULL_SIZE = 10000
QUICK_SIZE = 300
#: Enabled-path overhead cap: tracing a tight lattice sweep may cost
#: something, but an order-of-magnitude blowup means the instrumentation
#: landed inside the per-row inner loop instead of per-partition.
ENABLED_OVERHEAD_CEILING = 2.0


def _three_qi(size: int):
    data = adult_dataset(size, seed=7)
    roles = {
        name: AttributeRole.INSENSITIVE
        for name in data.schema.quasi_identifier_names
        if name not in QI
    }
    return data.with_roles(roles)


def _sweep(data, hierarchies, nodes):
    # Each timed sweep counts every node: empty the table's verdict store,
    # which would otherwise answer the later sweeps from the first.
    data.columns().lattice_memo.clear()
    workspace = RecodingWorkspace(data, hierarchies)
    return [workspace.violation_count(node, K) for node in nodes]


def test_bench_obs_null_path_overhead(benchmark, quick):
    hierarchies = adult_hierarchies()
    size = QUICK_SIZE if quick else FULL_SIZE
    data = _three_qi(size)
    nodes = list(RecodingWorkspace(data, hierarchies).lattice.nodes())

    def run_paths():
        # Warm shared caches (level tables are per-workspace, but dataset
        # interning and hierarchy imports are process-global) so the first
        # timed path is not paying one-time costs.
        _sweep(data, hierarchies, nodes)

        start = time.perf_counter()
        untraced_counts = _sweep(data, hierarchies, nodes)
        untraced = time.perf_counter() - start

        observation = Observation()
        with observing(observation):
            start = time.perf_counter()
            traced_counts = _sweep(data, hierarchies, nodes)
            traced = time.perf_counter() - start

        start = time.perf_counter()
        again_counts = _sweep(data, hierarchies, nodes)
        untraced_again = time.perf_counter() - start

        assert untraced_counts == traced_counts == again_counts
        return untraced, traced, untraced_again, observation

    untraced, traced, untraced_again, observation = benchmark.pedantic(
        run_paths, rounds=1, iterations=1
    )

    swept = size * len(nodes)
    best_null = min(untraced, untraced_again)
    ratio = traced / best_null if best_null else float("inf")
    lines = [
        f"{'path':<16}  {'seconds':>8}  {'rows/s':>12}",
        f"{'null (1st)':<16}  {untraced:>8.4f}  {swept / untraced:>12.0f}",
        f"{'enabled':<16}  {traced:>8.4f}  {swept / traced:>12.0f}",
        f"{'null (2nd)':<16}  {untraced_again:>8.4f}  {swept / untraced_again:>12.0f}",
        f"enabled/null ratio: {ratio:.2f}x",
    ]
    counters = observation.metrics.snapshot()["counters"]
    lines.append(
        "enabled path counted: "
        + ", ".join(f"{name}={counters[name]:.0f}" for name in sorted(counters))
    )
    emit(f"observability overhead, N={size}, {len(nodes)} nodes", lines)

    # The enabled observation must actually have seen the sweep: one
    # class-size count per verdict.
    assert counters.get("workspace.sizes", 0) >= len(nodes)
    if not quick:
        assert ratio <= ENABLED_OVERHEAD_CEILING, (
            f"enabled observation costs {ratio:.2f}x over the null path; "
            f"ceiling is {ENABLED_OVERHEAD_CEILING}x"
        )
