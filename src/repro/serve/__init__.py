"""repro.serve — the resident anonymization service.

The batch runtime (:mod:`repro.runtime`) answers "run this study once";
this package answers "keep the study's state resident and serve it".  One
:class:`ServeState` holds datasets, anonymized releases, derived vectors
and the content-addressed :class:`~repro.runtime.cache.ResultCache` in
memory; one :class:`ServeServer` exposes them over a stdlib asyncio HTTP
router (``anonymize`` / ``properties`` / ``compare`` / ``query``) with
per-request :mod:`repro.obs` spans and graceful signal-driven shutdown.
:mod:`repro.serve.workload` holds the deterministic request mix the
repository benchmark (``benchmarks/e2e``) replays against it.

Cache keys are bit-compatible with ``repro study``: point ``repro serve
--cache-dir`` at a study's store and warm requests never recompute — and
a restarted server resumes from the same store with 100% hits.

See ``docs/serve.md`` for the architecture and endpoint reference.
"""

from .query import GROUPBY_AGGREGATES, QUERY_SHAPES, QueryError, run_query
from .server import HttpRequest, ServeServer, ServerThread
from .state import ServeRequestError, ServeState
from .workload import WORKLOAD_CELLS, WORKLOAD_ENDPOINTS, build_plan

__all__ = [
    "GROUPBY_AGGREGATES",
    "QUERY_SHAPES",
    "QueryError",
    "run_query",
    "HttpRequest",
    "ServeServer",
    "ServerThread",
    "ServeRequestError",
    "ServeState",
    "WORKLOAD_CELLS",
    "WORKLOAD_ENDPOINTS",
    "build_plan",
]
