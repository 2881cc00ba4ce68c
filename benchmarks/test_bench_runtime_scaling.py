"""Experiment E10 — algorithm runtime scaling with data set size.

Wall-clock of the main algorithm families at k=5 across N — the practical
feasibility picture behind the comparisons.  Full-domain lattice searches
scale with (lattice size × N) via the vectorized frequency-set path;
Mondrian with (N log N × partitions); the cut-based TDS with
(specializations × candidates × N).

Also benchmarks the study runtime's two transports on a real study grid:
the ``inline`` transport (``n=1``) against a two-process ``pool``
(``n=2``), uncached, recorded to ``BENCH_runtime.json`` (ART012) with
result identity (scalars, property vectors and comparisons) as the
plane-equivalence witness.
"""

import time

from repro import Datafly, Mondrian, Samarati, TopDownSpecialization
from repro.datasets import adult_dataset, adult_hierarchies
from repro.runtime import AlgorithmSpec, DatasetSpec, StudySpec, run_study
from conftest import emit, percentile, record_trajectory

SIZES = [200, 500, 1000, 2000]
FACTORIES = {
    "datafly": lambda: Datafly(5),
    "samarati": lambda: Samarati(5),
    "mondrian": lambda: Mondrian(5),
    "tds": lambda: TopDownSpecialization(5),
}


def test_bench_runtime_vs_n(benchmark):
    hierarchies = adult_hierarchies()

    def sweep():
        rows = []
        for size in SIZES:
            data = adult_dataset(size, seed=7)
            timings = {}
            for name, factory in FACTORIES.items():
                start = time.perf_counter()
                release = factory().anonymize(data, hierarchies)
                timings[name] = time.perf_counter() - start
                assert len(release) == size
            rows.append((size, timings))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    header = f"{'N':>6}  " + "  ".join(f"{name:>9}" for name in FACTORIES)
    lines = [header]
    for size, timings in rows:
        lines.append(
            f"{size:>6}  "
            + "  ".join(f"{timings[name]:9.3f}" for name in FACTORIES)
        )
    emit("E10: algorithm runtime (seconds) vs N, k=5", lines)

    # Shape: every algorithm completes the largest size within sanity
    # bounds, and runtime does not explode super-quadratically.
    for name in FACTORIES:
        smallest = rows[0][1][name]
        largest = rows[-1][1][name]
        ratio = largest / max(smallest, 1e-9)
        growth = (SIZES[-1] / SIZES[0]) ** 2.5
        assert ratio < growth, f"{name} grew {ratio:.1f}x over {growth:.1f}x bound"


# -- transport benchmark ------------------------------------------------------

#: The study grid: six algorithms x two k values, 73 tasks in all.
GRID_ALGORITHMS = ("datafly", "samarati", "incognito", "muargus", "mondrian", "topdown")
GRID_KS = (5, 10)


def _grid_spec(rows: int) -> StudySpec:
    return StudySpec(
        dataset=DatasetSpec.of("adult", rows=rows, seed=42),
        algorithms=tuple(
            AlgorithmSpec.of(name, k=k) for name in GRID_ALGORITHMS for k in GRID_KS
        ),
    )


def test_bench_inline_vs_pool(quick, bench_json):
    """The uncached study grid, inline (n=1) versus a 2-process pool (n=2)."""
    rows = 600 if quick else 7000
    repeats = 2 if quick else 3
    spec = _grid_spec(rows)

    timings = {}
    results = {}
    for n, transport in ((1, "inline"), (2, "pool")):
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            result = run_study(spec, jobs=n, transport=transport)
            samples.append(time.perf_counter() - start)
            assert result.report.executed == len(result.report.outcomes)
            results.setdefault(n, result)
        timings[n] = samples
    inline, pool = results[1], results[2]
    plane_equivalent = (
        inline.scalars == pool.scalars
        and inline.vectors == pool.vectors
        and inline.comparisons == pool.comparisons
    )
    assert plane_equivalent

    if bench_json:
        cases = [
            {
                "n": n,
                "repeats": repeats,
                "p50_wall_s": round(percentile(samples, 0.50), 6),
                "p95_wall_s": round(percentile(samples, 0.95), 6),
                "plane_equivalent": plane_equivalent,
            }
            for n, samples in sorted(timings.items())
        ]
        record_trajectory(bench_json, "runtime", cases, quick)

    lines = [f"{'transport':>9}  {'p50 s':>9}  {'p95 s':>9}"]
    for n, samples in sorted(timings.items()):
        lines.append(
            f"{('inline', 'pool')[n - 1]:>9}  {percentile(samples, 0.50):9.4f}"
            f"  {percentile(samples, 0.95):9.4f}"
        )
    emit(
        f"E10b: study grid inline vs pool --jobs 2 "
        f"({len(inline.report.outcomes)} tasks, {rows} rows, uncached)",
        lines,
    )
