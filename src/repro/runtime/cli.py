"""The ``repro study`` subcommand.

Runs an algorithm × k grid through the study runtime: parallel execution
(``--jobs``), content-addressed memoization (``--cache-dir``), JSONL run
logs (``--run-dir``), per-task timeout/retry, and a ``--expect-cached``
assertion for CI warm-cache checks (exit code 3 when anything executed).
``--trace FILE`` / ``--metrics FILE`` enable the observability plane
(:mod:`repro.obs`) and export a Chrome-trace span file and a flat metrics
snapshot for the whole invocation.
"""

from __future__ import annotations

import argparse

from ..obs import Observation
from ..obs.export import write_chrome_trace, write_metrics_snapshot
from .cache import ResultCache
from .events import RunLog
from .executor import ExecutionError
from .transports import TRANSPORT_NAMES
from .study import (
    ALGORITHM_FACTORIES,
    DATASET_PROVIDERS,
    SCALAR_MEASURES,
    VECTOR_PROPERTIES,
    AlgorithmSpec,
    DatasetSpec,
    StudySpec,
    format_study_grid,
    run_study,
)

#: Exit code for a failed ``--expect-cached`` assertion.
EXIT_NOT_CACHED = 3


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro study`` arguments to a subcommand parser."""
    parser.add_argument(
        "--algorithms",
        nargs="+",
        choices=sorted(ALGORITHM_FACTORIES),
        default=["datafly", "mondrian", "samarati"],
        help="grid rows: one cell per algorithm per k",
    )
    parser.add_argument(
        "--ks",
        type=int,
        nargs="+",
        default=[2, 5, 10],
        help="grid columns: k values (default: 2 5 10)",
    )
    parser.add_argument(
        "--dataset",
        choices=sorted(DATASET_PROVIDERS),
        default="adult",
        help="workload provider (default: adult)",
    )
    parser.add_argument("--rows", type=int, default=300)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = serial in-process, the default)",
    )
    parser.add_argument(
        "--transport",
        choices=list(TRANSPORT_NAMES),
        default=None,
        help="where task attempts run: inline (coordinator loop) or pool "
        "(multiprocessing); default inline for --jobs 1, pool otherwise",
    )
    parser.add_argument(
        "--measures",
        nargs="+",
        choices=sorted(SCALAR_MEASURES),
        default=["k_achieved", "suppressed", "lm", "dm"],
        help="scalar measures reported per cell",
    )
    parser.add_argument(
        "--properties",
        nargs="+",
        choices=sorted(VECTOR_PROPERTIES),
        default=["equivalence-class-size"],
        help="per-tuple property vectors induced per cell",
    )
    parser.add_argument(
        "--cache-dir",
        default=".repro-cache",
        help="content-addressed result store (default: .repro-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable memoization entirely",
    )
    parser.add_argument(
        "--cache-max-mb",
        type=int,
        default=None,
        help="evict least-recently-used cache entries beyond this size",
    )
    parser.add_argument(
        "--run-dir",
        default=None,
        help="write events.jsonl + manifest.json into this directory",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-task timeout in seconds (parallel mode)",
    )
    parser.add_argument(
        "--retries", type=int, default=0,
        help="retry budget per task (default: 0)",
    )
    parser.add_argument(
        "--no-compare",
        action="store_true",
        help="skip the pairwise dominance comparison tasks",
    )
    parser.add_argument(
        "--expect-cached",
        action="store_true",
        help="fail (exit 3) unless every task was a cache hit",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="enable span tracing and write a Chrome-trace JSON file",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help="enable metric collection and write a JSON snapshot file",
    )


def run(args: argparse.Namespace) -> int:
    """Execute ``repro study`` and return the process exit code."""
    dataset = DatasetSpec.of(args.dataset, rows=args.rows, seed=args.seed)
    cells = tuple(
        AlgorithmSpec.of(algorithm, k=k)
        for algorithm in args.algorithms
        for k in args.ks
    )
    spec = StudySpec(
        dataset=dataset,
        algorithms=cells,
        scalar_measures=tuple(args.measures),
        vector_properties=tuple(args.properties),
        compare=not args.no_compare,
        seed=args.seed,
    )
    cache = None
    if not args.no_cache:
        max_bytes = None if args.cache_max_mb is None else args.cache_max_mb * 1024 * 1024
        cache = ResultCache(args.cache_dir, max_bytes=max_bytes)
    log = RunLog(args.run_dir) if args.run_dir else None
    observation = Observation() if (args.trace or args.metrics) else None

    try:
        result = run_study(
            spec,
            jobs=args.jobs,
            cache=cache,
            log=log,
            timeout=args.timeout,
            retries=args.retries,
            obs=observation,
            transport=args.transport,
        )
    except ExecutionError as exc:
        print(f"study failed: {exc}")
        return 1

    if observation is not None:
        if args.trace:
            path = write_chrome_trace(observation.trace.spans, args.trace)
            print(f"trace: {len(observation.trace.spans)} span(s) -> {path}")
        if args.metrics:
            path = write_metrics_snapshot(observation.metrics.snapshot(), args.metrics)
            print(f"metrics: snapshot -> {path}")

    print(
        f"study: {len(args.algorithms)} algorithm(s) x {len(args.ks)} k value(s) "
        f"on {args.dataset}[rows={args.rows},seed={args.seed}]"
    )
    print(format_study_grid(result))
    for prop, comparison in result.comparisons.items():
        wins = comparison["wins"]
        ranked = ", ".join(
            f"{name}({count})"
            for name, count in sorted(wins.items(), key=lambda kv: -kv[1])
        )
        print(f"dominance wins [{prop}]: {ranked}")

    summary = result.report.summary()
    rate = result.report.cache_hit_rate() * 100.0
    print(
        f"tasks: {summary['tasks']}  executed: {summary['executed']}  "
        f"cache hits: {summary['cache_hits']} ({rate:.1f}%)  "
        f"failed: {summary['failed']}  retries: {summary['retries']}  "
        f"wall: {summary['wall_seconds']:.2f}s  jobs: {args.jobs}"
    )
    if args.expect_cached and result.report.executed > 0:
        print(
            f"--expect-cached: {result.report.executed} task(s) executed; "
            "the store was not warm"
        )
        return EXIT_NOT_CACHED
    return 0
