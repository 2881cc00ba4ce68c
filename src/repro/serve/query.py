"""Released-data query workloads: the six canonical utility probes.

Query answering over an anonymized release is the classic utility measure
for disclosure control (Rastogi–Suciu): the more a release is generalized,
the fewer rows a selective predicate can still match, and the further an
aggregate drifts from its raw-data value.  This module implements the six
workload shapes of the concurrent benchmark plane — point lookup, range,
group-by aggregate, top-k, distinct-count and join — as one registered
task operation (``serve.query``) over *released* tables only.

Two invariants matter here:

* **released data only** — a query never touches ``release.original``;
  the op receives the released :class:`~repro.datasets.dataset.Dataset`
  and nothing else, so raw quasi-identifier values cannot flow into a
  response by construction;
* **determinism** — group keys are sorted, top-k ties break on the
  rendered value, and no ambient state is read, so the op is safe to
  memoize in the content-addressed cache and to run on the executor's
  process pool.

Generalized cells (intervals, spans, suppression stars) render through the
same lossless serialization the CSV release writer uses, so ``point``
predicates can name a generalized cell exactly as it appears in an
exported release.  Range predicates match only cells that are still raw
numbers — a generalized numeric cell no longer answers a range query,
which is precisely the information loss the workload measures.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..datasets.dataset import Dataset
from ..datasets.io import _serialize_cell
from ..runtime.task import register_op

#: The query shapes the serve plane answers, mirroring the canonical
#: concurrent utility-workload suites (point lookup, range, group-by
#: aggregate, top-k, distinct-count, join).
QUERY_SHAPES = ("point", "range", "groupby", "topk", "distinct", "join")

#: Aggregates accepted by the ``groupby`` shape.
GROUPBY_AGGREGATES = ("count", "sum", "avg")


class QueryError(ValueError):
    """Raised for malformed query payloads (a client error, HTTP 400)."""


def render_cell(cell: Any) -> str:
    """The lossless string form of one released cell.

    Identical to what :func:`repro.datasets.write_csv` emits, so query
    predicates compose with exported releases: intervals as ``(low,high]``,
    Mondrian spans as ``[low-high]``, set-valued cells as ``{a|b|c}``.
    """
    return _serialize_cell(cell)


def _require_column(released: Dataset, name: Any, field: str) -> str:
    if not isinstance(name, str) or not name:
        raise QueryError(f"query field {field!r} must name a column")
    if name not in released.schema.names:
        raise QueryError(
            f"unknown column {name!r}; choose from {list(released.schema.names)}"
        )
    return name


def _require_number(value: Any, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise QueryError(f"query field {field!r} must be a number")
    return float(value)


def _numeric_cells(released: Dataset, column: str) -> list[float]:
    """The still-raw numeric cells of a released column.

    Generalized cells (intervals, spans, suppression tokens) are not
    numbers any more and fall out of every range aggregate — that loss is
    the quantity range workloads probe.
    """
    return [
        float(cell)
        for cell in released.column(column)
        if not isinstance(cell, bool) and isinstance(cell, (int, float))
    ]


def _query_point(released: Dataset, query: Mapping[str, Any]) -> dict[str, Any]:
    column = _require_column(released, query.get("column"), "column")
    if "value" not in query:
        raise QueryError("point query requires a 'value' field")
    needle = str(query["value"])
    count = sum(
        1 for cell in released.column(column) if render_cell(cell) == needle
    )
    return {"shape": "point", "column": column, "value": needle, "count": count}


def _query_range(released: Dataset, query: Mapping[str, Any]) -> dict[str, Any]:
    column = _require_column(released, query.get("column"), "column")
    low = _require_number(query.get("low"), "low")
    high = _require_number(query.get("high"), "high")
    if low > high:
        raise QueryError(f"range query has low {low} > high {high}")
    matched = [
        value
        for value in _numeric_cells(released, column)
        if low <= value <= high
    ]
    return {
        "shape": "range",
        "column": column,
        "low": low,
        "high": high,
        "count": len(matched),
        "sum": sum(matched),
    }


def _query_groupby(released: Dataset, query: Mapping[str, Any]) -> dict[str, Any]:
    group_by = _require_column(released, query.get("group_by"), "group_by")
    aggregate = query.get("agg", "count")
    if aggregate not in GROUPBY_AGGREGATES:
        raise QueryError(
            f"unknown aggregate {aggregate!r}; choose from {list(GROUPBY_AGGREGATES)}"
        )
    keys = [render_cell(cell) for cell in released.column(group_by)]
    if aggregate == "count":
        groups: dict[str, float] = {}
        for key in keys:
            groups[key] = groups.get(key, 0) + 1
    else:
        target = _require_column(released, query.get("target"), "target")
        sums: dict[str, float] = {}
        counts: dict[str, int] = {}
        for key, cell in zip(keys, released.column(target)):
            if isinstance(cell, bool) or not isinstance(cell, (int, float)):
                continue
            sums[key] = sums.get(key, 0.0) + float(cell)
            counts[key] = counts.get(key, 0) + 1
        if aggregate == "sum":
            groups = sums
        else:
            groups = {key: sums[key] / counts[key] for key in sums}
    return {
        "shape": "groupby",
        "group_by": group_by,
        "agg": aggregate,
        "groups": {key: groups[key] for key in sorted(groups)},
        "group_count": len(groups),
    }


def _query_topk(released: Dataset, query: Mapping[str, Any]) -> dict[str, Any]:
    column = _require_column(released, query.get("column"), "column")
    k = query.get("k", 5)
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise QueryError(f"top-k query requires a positive integer 'k', got {k!r}")
    counts: dict[str, int] = {}
    for cell in released.column(column):
        key = render_cell(cell)
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return {
        "shape": "topk",
        "column": column,
        "k": k,
        "top": [[value, count] for value, count in ranked[:k]],
    }


def _query_distinct(released: Dataset, query: Mapping[str, Any]) -> dict[str, Any]:
    column = _require_column(released, query.get("column"), "column")
    seen = {render_cell(cell) for cell in released.column(column)}
    return {"shape": "distinct", "column": column, "distinct": len(seen)}


def _query_join(
    released: Dataset, query: Mapping[str, Any], other: Dataset | None
) -> dict[str, Any]:
    if other is None:
        raise QueryError(
            "join query requires an 'other' release "
            "(the second side of the join)"
        )
    on = _require_column(released, query.get("on"), "on")
    if on not in other.schema.names:
        raise QueryError(f"join column {on!r} missing from the other release")
    left: dict[str, int] = {}
    for cell in released.column(on):
        key = render_cell(cell)
        left[key] = left.get(key, 0) + 1
    right: dict[str, int] = {}
    for cell in other.column(on):
        key = render_cell(cell)
        right[key] = right.get(key, 0) + 1
    shared = sorted(set(left) & set(right))
    pairs = sum(left[key] * right[key] for key in shared)
    return {
        "shape": "join",
        "on": on,
        "keys": len(shared),
        "pairs": pairs,
    }


def run_query(
    released: Dataset,
    query: Mapping[str, Any],
    other: Dataset | None = None,
) -> dict[str, Any]:
    """Answer one workload query over a released table.

    ``query`` is a JSON-able mapping with a ``shape`` field naming one of
    :data:`QUERY_SHAPES` plus the shape's own fields; ``other`` is the
    second released table for ``join``.  Returns a JSON-able result dict;
    raises :class:`QueryError` on malformed payloads.
    """
    if not isinstance(query, Mapping):
        raise QueryError("query must be a JSON object")
    shape = query.get("shape")
    if shape == "point":
        return _query_point(released, query)
    if shape == "range":
        return _query_range(released, query)
    if shape == "groupby":
        return _query_groupby(released, query)
    if shape == "topk":
        return _query_topk(released, query)
    if shape == "distinct":
        return _query_distinct(released, query)
    if shape == "join":
        return _query_join(released, query, other)
    raise QueryError(
        f"unknown query shape {shape!r}; choose from {list(QUERY_SHAPES)}"
    )


@register_op("serve.query")
def _op_serve_query(
    params: Mapping[str, Any], deps: Mapping[str, Any], seed: int
) -> dict[str, Any]:
    """Registered op behind the ``/query`` endpoint.

    ``deps['release']`` (and ``deps['other']`` for joins) carry
    :class:`~repro.anonymize.engine.Anonymization` objects resolved by the
    server's resident state; only their *released* tables are consulted.
    The op is pure over its inputs, so results are memoized in the
    content-addressed cache under the query's canonical JSON.
    """
    release = deps["release"]
    other = deps.get("other")
    return run_query(
        release.released,
        params["query"],
        None if other is None else other.released,
    )
