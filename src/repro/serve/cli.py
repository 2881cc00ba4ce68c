"""The ``repro serve`` subcommand.

``repro serve`` boots the resident anonymization service and blocks until
a signal (or ``POST /shutdown``) drains it.  It shares the study
runtime's cache conventions — point it at a ``repro study`` cache
directory and warm results are served without recomputation.
"""

from __future__ import annotations

import argparse
import asyncio

from ..obs import NULL_OBSERVATION, Observation
from ..runtime.cache import ResultCache
from ..runtime.study import DATASET_PROVIDERS, DatasetSpec
from .server import ServeServer
from .state import ServeState


def configure_serve_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro serve`` arguments to a subcommand parser."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=8200,
        help="bind port; 0 binds an ephemeral port, printed on stdout",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        help="seconds shutdown waits for in-flight requests (default: 5)",
    )
    parser.add_argument(
        "--dataset",
        choices=sorted(DATASET_PROVIDERS),
        default="adult",
        help="resident workload provider (default: adult)",
    )
    parser.add_argument("--rows", type=int, default=300)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--cache-dir",
        default=".repro-cache",
        help="content-addressed result store shared with `repro study` "
        "(default: .repro-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="serve from memory only (no durable memoization)",
    )
    parser.add_argument(
        "--max-resident",
        type=int,
        default=256,
        help="resident results kept in memory (default: 256)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="enable span tracing; flushed atomically at shutdown",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help="enable metric collection; flushed atomically at shutdown",
    )


def run_serve(args: argparse.Namespace) -> int:
    """Execute ``repro serve``: block until drained, then exit cleanly."""
    state = ServeState(
        default_dataset=DatasetSpec.of(
            args.dataset, rows=args.rows, seed=args.seed
        ),
        cache=None if args.no_cache else ResultCache(args.cache_dir),
        seed=args.seed,
        max_resident=args.max_resident,
    )
    observation = (
        Observation() if (args.trace or args.metrics) else NULL_OBSERVATION
    )
    server = ServeServer(
        state,
        host=args.host,
        port=args.port,
        observation=observation,
        drain_timeout=args.drain_timeout,
        trace_path=args.trace,
        metrics_path=args.metrics,
    )
    asyncio.run(server.serve())
    return 0
