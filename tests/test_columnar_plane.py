"""Hypothesis property tests for the columnar measurement plane.

Two equivalences the plane must uphold on *arbitrary* inputs, not just the
pinned golden cases:

* plane equivalence — :func:`repro.anonymize.engine.recode` (columnar)
  and :func:`tests.rowplane.recode_rowwise` (the reference row plane)
  produce identical releases: same released rows, same partition (against
  the row-plane grouping of :func:`tests.rowplane.row_classes`), same
  class keys/sizes, same k, same property vectors;
* incremental-vs-fresh — walking a random ascending lattice path through
  one :class:`~repro.anonymize.algorithms.base.RecodingWorkspace` (whose
  partitions derive incrementally from cached finer nodes) yields exactly
  the partition a cold workspace computes fresh at each node.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.anonymize.algorithms.base import RecodingWorkspace
from repro.anonymize.engine import recode
from repro.core.properties import equivalence_class_size
from repro.datasets.dataset import Dataset
from repro.datasets.schema import AttributeKind, Schema, quasi_identifier, sensitive
from repro.hierarchy.categorical import TaxonomyHierarchy
from repro.hierarchy.numeric import Banding, IntervalHierarchy
from tests.rowplane import recode_rowwise, row_classes

SCHEMA = Schema.of(
    quasi_identifier("num", AttributeKind.NUMERIC),
    quasi_identifier("cat", AttributeKind.CATEGORICAL),
    sensitive("sens", AttributeKind.CATEGORICAL),
)

CATEGORIES = ["a", "b", "c", "d", "e", "f"]
HIERARCHIES = {
    "num": IntervalHierarchy("num", [Banding(5), Banding(20)], (0, 100)),
    "cat": TaxonomyHierarchy(
        "cat",
        {
            "a": ("left",), "b": ("left",), "c": ("left",),
            "d": ("right",), "e": ("right",), "f": ("right",),
        },
    ),
}
HEIGHTS = {"num": 3, "cat": 2}


@st.composite
def datasets(draw):
    size = draw(st.integers(min_value=1, max_value=40))
    rows = []
    for _ in range(size):
        rows.append((
            draw(st.integers(min_value=0, max_value=100)),
            draw(st.sampled_from(CATEGORIES)),
            draw(st.sampled_from(["s1", "s2", "s3"])),
        ))
    return Dataset(SCHEMA, rows)


@st.composite
def recoding_cases(draw):
    data = draw(datasets())
    levels = {
        "num": draw(st.integers(min_value=0, max_value=HEIGHTS["num"])),
        "cat": draw(st.integers(min_value=0, max_value=HEIGHTS["cat"])),
    }
    suppress = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(data) - 1),
            max_size=min(len(data), 5),
            unique=True,
        )
    )
    return data, levels, suppress


@st.composite
def lattice_paths(draw):
    """A dataset plus a random ascending node path from the lattice bottom."""
    data = draw(datasets())
    node = [0, 0]
    heights = [HEIGHTS["num"], HEIGHTS["cat"]]
    path = [tuple(node)]
    while node != heights:
        candidates = [i for i in range(2) if node[i] < heights[i]]
        step = draw(st.sampled_from(candidates))
        node[step] += 1
        path.append(tuple(node))
    return data, path


common = settings(
    max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


class TestPlaneEquivalence:
    @common
    @given(recoding_cases())
    def test_released_rows_identical(self, case):
        data, levels, suppress = case
        columnar = recode(data, HIERARCHIES, levels, suppress=suppress)
        rowwise = recode_rowwise(data, HIERARCHIES, levels, suppress=suppress)
        assert columnar.released.rows == rowwise.released.rows
        assert columnar.suppressed == rowwise.suppressed
        assert columnar.levels == rowwise.levels
        assert columnar.name == rowwise.name

    @common
    @given(recoding_cases())
    def test_partitions_identical(self, case):
        data, levels, suppress = case
        columnar = recode(data, HIERARCHIES, levels, suppress=suppress)
        rowwise = recode_rowwise(data, HIERARCHIES, levels, suppress=suppress)
        left = columnar.equivalence_classes
        for right in (rowwise.equivalence_classes, row_classes(rowwise)):
            assert tuple(left) == tuple(right)
            assert left.class_sizes() == right.class_sizes()
            assert left.sizes() == right.sizes()
            assert [
                left.key_of_class(i) for i in range(len(left))
            ] == [right.key_of_class(i) for i in range(len(right))]
        assert columnar.k() == rowwise.k()

    @common
    @given(recoding_cases())
    def test_property_vectors_identical(self, case):
        data, levels, suppress = case
        columnar = recode(data, HIERARCHIES, levels, suppress=suppress)
        rowwise = recode_rowwise(data, HIERARCHIES, levels, suppress=suppress)
        assert (
            equivalence_class_size(columnar).values
            == equivalence_class_size(rowwise).values
        )


class TestIncrementalPartitions:
    @common
    @given(lattice_paths())
    def test_incremental_equals_fresh_along_path(self, case):
        data, path = case
        walking = RecodingWorkspace(data, HIERARCHIES)
        for node in path:
            incremental = walking.partition(node)
            fresh = RecodingWorkspace(data, HIERARCHIES).partition(node)
            assert list(incremental.labels) == list(fresh.labels), node
            assert list(incremental.sizes) == list(fresh.sizes), node
            assert list(incremental.reps) == list(fresh.reps), node

    @common
    @given(lattice_paths())
    def test_walk_uses_the_incremental_path(self, case):
        data, path = case
        walking = RecodingWorkspace(data, HIERARCHIES)
        for node in path:
            walking.partition(node)
        stats = walking.partition_stats
        # Every non-bottom node of the path ascends from a cached finer
        # node over nested level tables, so only the bottom is fresh.
        assert stats["fresh"] == 1
        assert stats["derived"] == len(path) - 1

    @common
    @given(lattice_paths())
    def test_violation_counts_match_fresh(self, case):
        data, path = case
        walking = RecodingWorkspace(data, HIERARCHIES)
        for node in path:
            fresh = RecodingWorkspace(data, HIERARCHIES)
            assert walking.violation_count(node, 3) == fresh.violation_count(
                node, 3
            )
            assert walking.group_sizes(node) == fresh.group_sizes(node)
