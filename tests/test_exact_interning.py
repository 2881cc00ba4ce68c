"""Oracle: a full-domain release truthfully generalizes every tuple.

A release is a truthful generalization of each tuple when every row's
released cell is that row's own value generalized (the specification
A-COMPASS, arXiv:2606.20492, gives k-anonymity over).  Columns that mix
equal values of other types — ``7``/``7.0``, ``True``/``1``/``1.0``,
``0.0``/``-0.0`` beside the string ``"7"`` — are where an interning by
equality would release one row's cell for another.  On both kernel
backends, :func:`repro.anonymize.engine.recode` (the columnar plane) and
:func:`tests.rowplane.recode_rowwise` / :func:`tests.rowplane.row_classes`
(the row plane) must agree on

* whether recoding raises, and the exception type;
* the partition and its class keys;
* every released cell, by ``type`` and ``repr``;
* every registered measure (:data:`~repro.runtime.study.VECTOR_PROPERTIES`
  and :data:`~repro.analysis.sweep.SCALAR_MEASURES`), by ``repr``, or the
  exception type it raises;

and shuffling the rows must give every row the same released cell.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import SCALAR_MEASURES
from repro.anonymize.engine import recode
from repro.datasets.dataset import Dataset
from repro.datasets.schema import AttributeKind, Schema, quasi_identifier, sensitive
from repro.hierarchy.categorical import TaxonomyHierarchy
from repro.hierarchy.masking import MaskingHierarchy
from repro.hierarchy.numeric import Banding, IntervalHierarchy
from repro.kernels import HAVE_NUMPY, force_backend
from repro.runtime.study import VECTOR_PROPERTIES
from tests.rowplane import recode_rowwise, row_classes

#: Equal values of other types, and a string that prints like one of them.
POOL = (7, 7.0, True, 1, 1.0, 0.0, -0.0, "7")

SCHEMA = Schema.of(
    quasi_identifier("num", AttributeKind.NUMERIC),
    quasi_identifier("mask", AttributeKind.STRING),
    quasi_identifier("tax", AttributeKind.CATEGORICAL),
    sensitive("sens", AttributeKind.CATEGORICAL),
)
HIERARCHIES = {
    # "7" is not numeric, so the interval hierarchy raises on it.
    "num": IntervalHierarchy("num", [Banding(5), Banding(20)], (0, 100)),
    # Only three-character strs mask: 7.0, 1.0 and 0.0, not 7 or -0.0.
    "mask": MaskingHierarchy("mask", 3),
    # Level 0 releases each value itself; every POOL value is a leaf.
    "tax": TaxonomyHierarchy(
        "tax", {7: ("odd",), 1: ("odd",), 0: ("even",), "7": ("text",)}
    ),
}
HEIGHTS = {"num": 3, "mask": 3, "tax": 2}

BACKENDS = [
    "python",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(not HAVE_NUMPY, reason="numpy backend not installed"),
    ),
]


#: The POOL values each QI's hierarchy generalizes without raising.
ACCEPTED = {
    "num": tuple(value for value in POOL if value != "7"),
    "mask": (7.0, 1.0, 0.0),
    "tax": POOL,
}


def column(draw, size, accepted=POOL):
    """``size`` cells from a random non-empty sub-pool of POOL, or, half
    the time, of the values its hierarchy accepts (so that most cases
    release rather than raise)."""
    source = draw(st.sampled_from((POOL, accepted)))
    pool = draw(st.lists(st.sampled_from(source), min_size=1, max_size=4, unique_by=typed))
    return draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))


@st.composite
def cases(draw):
    size = draw(st.integers(min_value=1, max_value=12))
    rows = list(zip(
        *(column(draw, size, ACCEPTED.get(name, POOL)) for name in SCHEMA.names)
    ))
    levels = {
        name: draw(st.integers(min_value=0, max_value=height))
        for name, height in HEIGHTS.items()
    }
    suppress = draw(st.sets(st.integers(min_value=0, max_value=size - 1), max_size=3))
    return rows, levels, sorted(suppress), draw(st.randoms(use_true_random=False))


def typed(value):
    return type(value).__name__, repr(value)


def outcome(call):
    """``("ok", result)`` or ``("raises", exception type)``."""
    try:
        return "ok", call()
    except Exception as exc:  # noqa: BLE001 — the type is the observation
        return "raises", type(exc)


def measures(release):
    """Every registered measure of ``release``, by ``repr``."""
    observed = {}
    for name, measure in VECTOR_PROPERTIES.items():
        observed[name] = outcome(lambda: repr(list(measure(release, HIERARCHIES).values)))
    for name, measure in SCALAR_MEASURES.items():
        observed[name] = outcome(lambda: repr(measure(release, HIERARCHIES)))
    return observed


def released_cells(release):
    return [tuple(map(typed, row)) for row in release.released.quasi_identifier_tuples()]


def class_keys(classes):
    return [
        tuple(map(typed, classes.key_of_class(index))) for index in range(len(classes))
    ]


common = settings(
    max_examples=120, suppress_health_check=[HealthCheck.too_slow], deadline=None
)

#: The row-order case: a masking hierarchy accepts ``7.0`` ("7.0") but
#: not the equal ``7`` ("7"), whichever row comes first.
ROW_ORDER_CASE = (
    [(7, 7.0, 7, "a"), (7, 7, 7, "a")], {"num": 0, "mask": 0, "tax": 0}, [], random.Random(0)
)


@pytest.mark.parametrize("backend", BACKENDS)
class TestTruthfulRelease:
    @common
    @given(case=cases())
    @example(case=ROW_ORDER_CASE)
    def test_planes_agree(self, backend, case):
        rows, levels, suppress, _ = case
        data = Dataset(SCHEMA, rows)
        with force_backend(backend):
            columnar = outcome(lambda: recode(data, HIERARCHIES, levels, suppress=suppress))
            rowwise = outcome(
                lambda: recode_rowwise(data, HIERARCHIES, levels, suppress=suppress)
            )
            assert columnar[0] == rowwise[0]
            if columnar[0] == "raises":
                assert columnar[1] is rowwise[1]
                return
            columnar, rowwise = columnar[1], rowwise[1]
            assert released_cells(columnar) == released_cells(rowwise)
            left = columnar.equivalence_classes
            for right in (rowwise.equivalence_classes, row_classes(rowwise)):
                assert tuple(left) == tuple(right)
                assert class_keys(left) == class_keys(right)
            assert measures(columnar) == measures(rowwise)

    @common
    @given(case=cases())
    @example(case=ROW_ORDER_CASE)
    def test_row_order_does_not_change_a_cell(self, backend, case):
        rows, levels, suppress, rng = case
        order = list(range(len(rows)))
        rng.shuffle(order)
        data = Dataset(SCHEMA, rows)
        shuffled = Dataset(SCHEMA, [rows[row] for row in order])
        moved = [order.index(row) for row in suppress]
        with force_backend(backend):
            before = outcome(lambda: recode(data, HIERARCHIES, levels, suppress=suppress))
            after = outcome(lambda: recode(shuffled, HIERARCHIES, levels, suppress=moved))
            assert before[0] == after[0]
            if before[0] == "raises":
                assert before[1] is after[1]
                return
            cells, shuffled_cells = released_cells(before[1]), released_cells(after[1])
        assert [cells[row] for row in order] == shuffled_cells

    def test_equal_values_release_their_own_cells(self, backend):
        rows = [
            (7.0, 7.0, 7.0, "a"), (7, 7.0, 7, "a"), (True, 1.0, 1, "b"), (1, 1.0, True, "b"),
        ]
        data = Dataset(SCHEMA, rows)
        levels = {"num": 0, "mask": 0, "tax": 0}
        with force_backend(backend):
            release = recode(data, HIERARCHIES, levels)
            assert [cell[0] for cell in released_cells(release)] == [
                ("float", "7.0"), ("int", "7"), ("bool", "True"), ("int", "1"),
            ]
            assert [cell[2] for cell in released_cells(release)] == [
                ("float", "7.0"), ("int", "7"), ("int", "1"), ("bool", "True"),
            ]
            # Equal cells still share a class, as the row plane groups them.
            assert tuple(release.equivalence_classes) == ((0, 1), (2, 3))
