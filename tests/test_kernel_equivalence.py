"""Property tests pinning the two kernel backends to each other.

The kernel layer's contract is *exact* observable equality: for every
operation, the numpy backend must return the same values (labels, sizes,
minima, histograms, interned codes) as the pure-python backend — not
merely isomorphic ones.  These tests drive both backends over
hypothesis-generated and adversarially constructed inputs:

* single-class partitions (constant columns),
* all-rows-suppressed recodings,
* mixed-radix packing at the int64 overflow edge, where
  ``pack_columns`` must fall back to densifying the running key,
* empty columns,
* codes far beyond int32,
* mixed-type, NUL-string, huge-int and NaN columns, which both backends
  intern through the one dict pass.

The counter PRNG's scalar and vectorized paths are pinned here too, since
the generators' byte-identity rests on them.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets.columnar import ColumnCodes
from repro.kernels import (
    HAVE_NUMPY,
    active,
    backend_name,
    force_backend,
    pack_columns,
)
from repro.kernels.prng import (
    CounterStream,
    bounded_int,
    categorical,
    cumulative_weights,
)

requires_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy backend not installed"
)

#: Code values spanning small domains, int32 overflow and the int64 edge.
codes_strategy = st.integers(min_value=0, max_value=2**40 - 1)
column_strategy = st.lists(codes_strategy, min_size=0, max_size=40)


def on_both_backends(operation):
    """Run ``operation(kernels)`` on each available backend."""
    results = {}
    backends = ["python"] + (["numpy"] if HAVE_NUMPY else [])
    for name in backends:
        with force_backend(name):
            results[name] = operation(active())
    return results


def assert_backends_agree(operation):
    results = on_both_backends(operation)
    if len(results) == 2:
        assert results["python"] == results["numpy"]
    return results["python"]


class CountingKernels:
    """A backend wrapper that counts ``densify`` calls."""

    def __init__(self, kernels):
        self._kernels = kernels
        self.densifies = 0

    def __getattr__(self, name):
        return getattr(self._kernels, name)

    def densify(self, combined):
        self.densifies += 1
        return self._kernels.densify(combined)


def full_grouping(kernels, columns, radixes):
    """Pack columns mixed-radix, then group: the plane's inner loop."""
    if not columns:
        return [], [], [], 0
    combined, _ = pack_columns(
        kernels,
        [(kernels.asarray(column), radix) for column, radix in zip(columns, radixes)],
    )
    reps, labels, count = kernels.group(combined)
    sizes = kernels.bincount(labels, count)
    return (
        kernels.tolist(reps),
        kernels.tolist(labels),
        kernels.tolist(sizes),
        count,
    )


class TestGroupingEquivalence:
    @given(st.lists(column_strategy, min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_pack_group_sizes_identical(self, columns):
        rows = min(len(column) for column in columns)
        columns = [column[:rows] for column in columns]
        radixes = [max(column, default=0) + 1 for column in columns]
        reps, labels, sizes, count = assert_backends_agree(
            lambda kernels: full_grouping(kernels, columns, radixes)
        )
        assert len(labels) == rows
        assert sum(sizes) == rows
        # Canonical labels: group g's representative row is its first
        # occurrence, and reps are strictly increasing in... no — reps are
        # ordered by packed value rank, so only validity is asserted.
        for group, representative in enumerate(reps):
            assert labels[representative] == group

    @given(st.integers(min_value=0, max_value=50), codes_strategy)
    @settings(max_examples=30, deadline=None)
    def test_single_class_partition(self, rows, value):
        column = [value] * rows
        reps, labels, sizes, count = assert_backends_agree(
            lambda kernels: full_grouping(kernels, [column], [value + 1])
        )
        if rows:
            assert count == 1 and sizes == [rows] and reps == [0]
        else:
            assert count == 0 and sizes == []

    def test_empty_columns(self):
        result = assert_backends_agree(
            lambda kernels: full_grouping(kernels, [[], []], [1, 1])
        )
        assert result == ([], [], [], 0)

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_all_rows_suppressed(self, column):
        """Suppression scatter-fills one code over every row, then packs."""
        suppression_code = 6

        def operation(kernels):
            codes = kernels.gather(
                kernels.asarray(list(range(7))), kernels.asarray(column)
            )
            kernels.scatter_fill(
                codes, kernels.asarray(list(range(len(column)))), suppression_code
            )
            combined = kernels.pack(
                kernels.asarray([0] * len(column)), 7, codes
            )
            reps, labels, count = kernels.group(combined)
            return (
                kernels.tolist(reps),
                kernels.tolist(labels),
                count,
            )

        reps, labels, count = assert_backends_agree(operation)
        assert count == 1 and set(labels) == {0} and reps == [0]

    @given(
        st.lists(
            st.integers(min_value=0, max_value=2**40 - 1),
            min_size=1,
            max_size=30,
        ),
        st.lists(
            st.integers(min_value=0, max_value=2**40 - 1),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_redensify_prevents_int64_overflow(self, first, second):
        """Two radix-2^40 columns overflow int64 unless pack_columns densifies.

        The naive product ``c1 * 2^40 + c2`` can reach 2^80; the running
        bound must trigger the densify fallback (labels below ``rows``)
        before the second column multiplies in, and both backends must
        agree on the result.
        """
        rows = min(len(first), len(second))
        columns = [first[:rows], second[:rows]]
        radixes = [2**40, 2**40]

        def operation(kernels):
            counting = CountingKernels(kernels)
            return full_grouping(counting, columns, radixes), counting.densifies

        (reps, labels, sizes, count), densifies = assert_backends_agree(operation)
        assert densifies == 1
        assert sum(sizes) == rows

    def test_codes_beyond_int32_at_int64_edge(self):
        """A radix-2 column times a radix-2^62 column: the bound is exactly
        2^63, so the raw keys touch the int64 boundary without a densify."""
        column = [0, 1, 1, 0]
        combined = [0, 0, 1, 1]

        def operation(kernels):
            counting = CountingKernels(kernels)
            packed, bound = pack_columns(
                counting,
                [(kernels.asarray(combined), 2), (kernels.asarray(column), 2**62)],
            )
            assert counting.densifies == 0
            assert bound == 2**63
            assert kernels.tolist(packed)[2] == 2**62 + 1
            labels, _ = kernels.densify(packed)
            return kernels.tolist(labels)

        labels = assert_backends_agree(operation)
        assert labels == [0, 1, 3, 2]

    @given(
        st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=50),
        st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_grouped_value_counts_identical(self, class_codes, value_codes):
        rows = min(len(class_codes), len(value_codes))
        class_codes = class_codes[:rows]
        value_codes = value_codes[:rows]

        def operation(kernels):
            labels, count = kernels.densify(kernels.asarray(class_codes))
            return kernels.grouped_value_counts(
                labels, count, kernels.asarray(value_codes)
            )

        histograms = assert_backends_agree(operation)
        assert sum(
            count for per_class in histograms for _, count in per_class
        ) == rows

    @given(
        st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=40),
        st.lists(st.integers(min_value=1, max_value=7), min_size=9, max_size=9),
    )
    @settings(max_examples=40, deadline=None)
    def test_fold_reductions_identical(self, child_of_group, parent_values):
        """fold_add / fold_min drive the incremental-coarsening minima."""
        count = 9
        parent_count = len(child_of_group)

        parent_row_values = (parent_values * 40)[:parent_count]

        def operation(kernels):
            child = kernels.asarray(child_of_group)
            sizes = kernels.fold_add(
                child, kernels.asarray([1] * parent_count), count
            )
            minima = kernels.fold_min(
                child, kernels.asarray(parent_row_values), count, fill=99
            )
            return kernels.tolist(sizes), kernels.tolist(minima)

        sizes, minima = assert_backends_agree(operation)
        assert sum(sizes) == parent_count

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=0, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_scans_identical(self, values):
        def operation(kernels):
            array = kernels.asarray(values)
            return (
                kernels.flatnonzero_less(array, 10),
                kernels.sum_less(array, 10),
            )

        assert_backends_agree(operation)

    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=0, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_size_histogram_identical(self, sizes):
        def operation(kernels):
            return kernels.size_histogram(kernels.asarray(sizes)).tolist()

        histogram = assert_backends_agree(operation)
        distinct = sorted(set(sizes))
        m = len(distinct)
        assert histogram[:m] == distinct
        for i, size in enumerate(distinct + [31]):
            assert histogram[m + i] == sum(s for s in sizes if s < size)
            assert histogram[2 * m + 1 + i] == sum(1 for s in sizes if s < size)


value_strategy = st.one_of(
    st.text(max_size=6),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=True),
)


def reference_intern(values):
    """The exact interning contract: one dict loop keyed on ``(type, repr,
    value)``, codes in first occurrence order, each code decoding to its
    first object."""
    lookup = {}
    codes = []
    for value in values:
        key = (type(value), repr(value), value)
        code = lookup.get(key)
        if code is None:
            code = len(lookup)
            lookup[key] = code
        codes.append(code)
    return codes, tuple(key[2] for key in lookup)


#: Most rows a generated oracle case has; radices stay at or below
#: ``2**63 // MAX_ORACLE_ROWS`` so a densified key always has room for the
#: next column.
MAX_ORACLE_ROWS = 20
MAX_ORACLE_RADIX = 2**63 // MAX_ORACLE_ROWS
EDGE_RADIXES = [2**31, 2**32 + 1, 2**40, 2**58, MAX_ORACLE_RADIX]


def per_step_reference(columns, radixes):
    """Pure-python oracle: densify after every multiply-add, then group.

    Returns ``(reps, labels, sizes, count)`` with sorted-rank labels and
    each group's minimal row index as its representative.
    """
    combined = list(columns[0])
    for column, radix in zip(columns[1:], radixes[1:]):
        packed = [value * radix + code for value, code in zip(combined, column)]
        rank = {value: position for position, value in enumerate(sorted(set(packed)))}
        combined = [rank[value] for value in packed]
    rank = {value: position for position, value in enumerate(sorted(set(combined)))}
    labels = [rank[value] for value in combined]
    reps = [None] * len(rank)
    sizes = [0] * len(rank)
    for row, label in enumerate(labels):
        if reps[label] is None:
            reps[label] = row
        sizes[label] += 1
    return reps, labels, sizes, len(rank)


@st.composite
def radix_columns(draw):
    """One to three columns, codes below radices that span the int64 edge."""
    rows = draw(st.integers(min_value=0, max_value=MAX_ORACLE_ROWS))
    width = draw(st.integers(min_value=1, max_value=3))
    radixes = [
        draw(
            st.one_of(
                st.integers(min_value=1, max_value=8),
                st.sampled_from(EDGE_RADIXES),
                st.integers(min_value=1, max_value=MAX_ORACLE_RADIX),
            )
        )
        for _ in range(width)
    ]
    columns = [
        draw(
            st.lists(
                st.one_of(
                    st.integers(min_value=0, max_value=min(radix, 4) - 1),
                    st.just(radix - 1),
                    st.integers(min_value=0, max_value=radix - 1),
                ),
                min_size=rows,
                max_size=rows,
            )
        )
        for radix in radixes
    ]
    return columns, radixes


class TestPackColumnsOracle:
    """``pack_columns`` + ``group`` equals densifying after every step."""

    @given(radix_columns())
    @example(([[0, 1, 1, 0], [0, 0, 1, 1]], [2, 2**62]))
    @example(([[5, 0, 5], [2**40 - 1, 3, 2**40 - 1], [7, 7, 0]], [2**40] * 3))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_step_densify_reference(self, case):
        columns, radixes = case
        expected = per_step_reference(columns, radixes)
        result = assert_backends_agree(
            lambda kernels: full_grouping(kernels, columns, radixes)
        )
        assert result == expected

    def test_three_columns_densify_twice(self):
        """2^40 x 2^40 overflows; after a densify, rows x 2^40 x 2^40 again."""
        columns = [[3, 0, 3, 1], [2**40 - 1, 0, 2**40 - 1, 0], [1, 1, 0, 1]]
        radixes = [2**40, 2**40, 2**40]

        def operation(kernels):
            counting = CountingKernels(kernels)
            return full_grouping(counting, columns, radixes), counting.densifies

        result, densifies = assert_backends_agree(operation)
        assert densifies == 2
        assert result == per_step_reference(columns, radixes)

    def test_small_radices_never_densify(self):
        """Adult-sized radices pack raw: the only sort is group's."""
        columns = [[0, 1, 2, 1], [4, 4, 0, 4], [1, 0, 1, 0]]
        radixes = [3, 5, 2]

        def operation(kernels):
            counting = CountingKernels(kernels)
            return full_grouping(counting, columns, radixes), counting.densifies

        result, densifies = assert_backends_agree(operation)
        assert densifies == 0
        assert result == per_step_reference(columns, radixes)

    def test_unrepresentable_product_raises(self):
        """Even densified, 3 groups x radix 2^62 cannot fit int64."""
        for name in ["python"] + (["numpy"] if HAVE_NUMPY else []):
            with force_backend(name):
                kernels = active()
                with pytest.raises(OverflowError):
                    pack_columns(
                        kernels,
                        [
                            (kernels.asarray([0, 1, 2]), 3),
                            (kernels.asarray([0, 0, 0]), 2**62),
                        ],
                    )


def key_sizes_case(kernels, columns, radixes):
    """``key_sizes`` over the packed columns, plus the grouped sizes."""
    keys, bound = pack_columns(
        kernels,
        [(kernels.asarray(column), radix) for column, radix in zip(columns, radixes)],
    )
    sizes = kernels.tolist(kernels.key_sizes(keys, bound))
    return sizes, bound, len(keys)


class TestKeySizes:
    """``key_sizes`` equals ``bincount(group(keys))`` on every route:
    the ``bincount`` route (bound at most the row count), the sorted-count
    route (bound above it) and keys densified on the int64 overflow path.
    Sizes are bit-identical across backends."""

    @given(radix_columns())
    @example(([[0, 1, 1, 0], [0, 0, 1, 1]], [2, 2**62]))
    @example(([[5, 0, 5], [2**40 - 1, 3, 2**40 - 1], [7, 7, 0]], [2**40] * 3))
    @example(([[0, 1, 2, 1, 0, 0], [1, 1, 0, 1, 1, 0]], [3, 2]))
    @settings(max_examples=150, deadline=None)
    def test_matches_grouped_sizes(self, case):
        columns, radixes = case
        sizes, _, _ = assert_backends_agree(
            lambda kernels: key_sizes_case(kernels, columns, radixes)
        )
        _, _, expected, _ = per_step_reference(columns, radixes)
        assert sizes == expected

    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=12, max_size=40),
        st.lists(st.integers(min_value=0, max_value=2), min_size=12, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_bincount_route(self, first, second):
        """Bound 12 <= rows: counted by ``bincount`` and compressed, with
        unused keys (gaps in the key range) dropped."""
        rows = min(len(first), len(second))
        columns = [first[:rows], second[:rows]]
        sizes, bound, length = assert_backends_agree(
            lambda kernels: key_sizes_case(kernels, columns, [4, 3])
        )
        assert bound == 12 <= length
        assert sizes == per_step_reference(columns, [4, 3])[2]

    @given(st.lists(st.integers(min_value=0, max_value=2**40 - 1), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_sorted_count_route(self, column):
        """Bound 2^40 > rows: counted by a sort over the distinct keys."""
        sizes, bound, length = assert_backends_agree(
            lambda kernels: key_sizes_case(kernels, [column], [2**40])
        )
        assert bound > length
        assert sizes == [count for _, count in sorted(Counter(column).items())]

    @given(
        st.lists(st.integers(min_value=0, max_value=2**40 - 1), min_size=1, max_size=30),
        st.lists(st.integers(min_value=0, max_value=2**40 - 1), min_size=1, max_size=30),
        st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_after_overflow_densify(self, first, second, third):
        """Two radix-2^40 columns overflow int64, so ``pack_columns``
        densifies; the bound it hands back is the densified one."""
        rows = min(len(first), len(second), len(third))
        columns = [first[:rows], second[:rows], third[:rows]]
        radixes = [2**40, 2**40, 2]

        def operation(kernels):
            counting = CountingKernels(kernels)
            return key_sizes_case(counting, columns, radixes), counting.densifies

        (sizes, bound, _), densifies = assert_backends_agree(operation)
        assert densifies == 1
        assert bound < 2**40 * 2**40
        assert sizes == per_step_reference(columns, radixes)[2]

    def test_no_columns(self):
        for name in ["python"] + (["numpy"] if HAVE_NUMPY else []):
            with force_backend(name):
                assert pack_columns(active(), []) == (None, 1)


@st.composite
def segmented(draw, lengths=st.integers(min_value=1, max_value=9), top=None):
    """``(values, starts)``: non-negative codes and a segmentation of them
    (ascending non-empty segment starts, the first 0)."""
    sizes = draw(st.lists(lengths, min_size=1, max_size=10))
    if top is None:
        # Small domains tie often; 2**20 takes numpy's sorted distinct count.
        top = draw(st.sampled_from((0, 1, 3, 40, 2**20)))
    values = draw(
        st.lists(
            st.integers(min_value=0, max_value=top),
            min_size=sum(sizes),
            max_size=sum(sizes),
        )
    )
    return values, list(accumulate(sizes, initial=0))[:-1]


def segment_ops(kernels, values, starts):
    """Every segment op over one segmentation, as plain lists."""
    array = kernels.asarray(values)
    top = max(values)
    segments = kernels.segments(starts, len(values))
    order, below = kernels.segment_split(array, segments)
    flipped, _ = kernels.segment_split(
        kernels.asarray([top - value for value in values]), segments
    )
    # Segments cycle through: unchanged, ascending, descending.
    choice = [(-1, 0, 2)[index % 3] for index in range(len(starts))]
    chosen = kernels.segment_choose([order, None, flipped], choice, segments)
    every_other = list(zip(starts, [*starts[1:], len(values)]))[::2]
    positions = kernels.ranges(
        [start for start, _ in every_other], [end - start for start, end in every_other]
    )
    target = kernels.asarray([0] * len(values))
    kernels.scatter(target, positions, kernels.gather(array, positions))
    return (
        kernels.segment_bounds(array, segments),
        kernels.segment_distinct(array, segments),
        kernels.tolist(order),
        below,
        kernels.tolist(chosen),
        kernels.tolist(positions),
        kernels.tolist(target),
    )


def segment_reference(values, starts):
    """``segment_ops`` by brute force over python slices."""
    bounds = list(zip(starts, [*starts[1:], len(values)]))
    top = max(values)
    minima, maxima, distinct, order, below, chosen = [], [], [], [], [], []
    for index, (start, end) in enumerate(bounds):
        segment = values[start:end]
        minima.append(min(segment))
        maxima.append(max(segment))
        distinct.append(len(set(segment)))
        ascending = sorted(range(start, end), key=values.__getitem__)
        order += ascending
        keys = sorted(segment)
        below.append(bisect_left(keys, keys[len(keys) // 2]))
        pick = (-1, 0, 2)[index % 3]
        if pick < 0:
            chosen += range(start, end)
        elif pick == 0:
            chosen += ascending
        else:
            chosen += sorted(range(start, end), key=lambda row: top - values[row])
    positions = [row for start, end in bounds[::2] for row in range(start, end)]
    target = [values[row] if row in positions else 0 for row in range(len(values))]
    return (minima, maxima), distinct, order, below, chosen, positions, target


class TestSegmentOps:
    """The segment ops Mondrian's level-at-a-time split runs on equal a
    brute-force pass over python slices, bit-identically on both
    backends: random segmentations, single-row segments and segments
    whose values all tie (so a stable sort keeps them in place)."""

    @given(segmented())
    @settings(max_examples=150, deadline=None)
    def test_random_segmentations(self, case):
        values, starts = case
        result = assert_backends_agree(lambda kernels: segment_ops(kernels, values, starts))
        assert result == segment_reference(values, starts)

    @given(segmented(lengths=st.just(1)))
    @settings(max_examples=40, deadline=None)
    def test_single_row_segments(self, case):
        values, starts = case
        result = assert_backends_agree(lambda kernels: segment_ops(kernels, values, starts))
        assert result == segment_reference(values, starts)
        (minima, maxima), distinct, order, below, _, _, _ = result
        assert minima == maxima == values
        assert distinct == [1] * len(values)
        assert order == list(range(len(values)))
        assert below == [0] * len(values)

    @given(segmented(top=0), st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=40, deadline=None)
    def test_all_tied_segments(self, case, value):
        zeros, starts = case
        values = [value] * len(zeros)
        result = assert_backends_agree(lambda kernels: segment_ops(kernels, values, starts))
        assert result == segment_reference(values, starts)
        _, distinct, order, below, chosen, _, _ = result
        assert distinct == [1] * len(starts)
        assert order == chosen == list(range(len(values)))
        assert below == [0] * len(starts)

    def test_no_segments(self):
        def operation(kernels):
            segments = kernels.segments([], 0)
            order, below = kernels.segment_split(kernels.asarray([]), segments)
            return (
                kernels.segment_bounds(kernels.asarray([]), segments),
                kernels.segment_distinct(kernels.asarray([]), segments),
                kernels.tolist(order),
                below,
                kernels.tolist(kernels.ranges([], [])),
            )

        assert assert_backends_agree(operation) == (([], []), [], [], [], [])


def column_codes_on_both_backends(values):
    """``(codes, decode)`` of a :class:`ColumnCodes` built on each backend."""

    def operation(_kernels):
        column = ColumnCodes("c", values)
        return list(column.codes), column.decode

    return on_both_backends(operation)


class TestInternEquivalence:
    @given(st.lists(st.text(max_size=5), max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_string_columns(self, values):
        self.assert_matches_reference(tuple(values))

    @given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_int_columns(self, values):
        self.assert_matches_reference(tuple(values))

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=True), max_size=50)
    )
    @settings(max_examples=60, deadline=None)
    def test_float_columns(self, values):
        self.assert_matches_reference(tuple(values))

    @given(st.lists(value_strategy, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_mixed_columns(self, values):
        self.assert_matches_reference(tuple(values))

    @pytest.mark.parametrize(
        "values",
        [
            (1, "1", 2.5),
            ("a", "a\x00", "a"),
            (2**70, 0, 2**70),
            (float("nan"), 1.0, float("nan")),
            (7, 7.0, True, 1, 0.0, -0.0),
        ],
        ids=["mixed-types", "nul-strings", "huge-ints", "nan", "equal-across-types"],
    )
    def test_column_codes_identical_on_both_backends(self, values):
        self.assert_matches_reference(values)

    @staticmethod
    def assert_matches_reference(values):
        expected_codes, expected_decode = reference_intern(values)
        for codes, decode in column_codes_on_both_backends(values).values():
            assert codes == expected_codes
            # Identity, not just equality: each decode entry must be the
            # exact first-occurrence object of its group.
            assert len(decode) == len(expected_decode)
            for actual, expected in zip(decode, expected_decode):
                assert actual is expected


class TestCounterPrng:
    @given(st.integers(min_value=0, max_value=2**63), st.text(max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_doubles_in_unit_interval(self, seed, name):
        stream = CounterStream(seed, name, 3)
        for row in range(20):
            for draw in range(3):
                value = stream.double(row, draw)
                assert 0.0 <= value < 1.0

    @requires_numpy
    @given(
        st.integers(min_value=0, max_value=2**63),
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_matches_scalar(self, seed, row_start, row_count):
        import numpy as np

        stream = CounterStream(seed, "block", 4)
        for draw in (0, 3):
            block = stream.doubles_block(np, row_start, row_count, draw)
            scalar = [
                stream.double(row, draw)
                for row in range(row_start, row_start + row_count)
            ]
            assert block.tolist() == scalar

    @given(
        st.lists(
            st.floats(min_value=0.001, max_value=10.0), min_size=1, max_size=9
        ),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_categorical_matches_searchsorted(self, weights, u):
        cumulative = cumulative_weights(weights)
        index = categorical(u, cumulative)
        assert 0 <= index < len(weights)
        if HAVE_NUMPY:
            import numpy as np

            vectorized = min(
                int(np.searchsorted(np.asarray(cumulative), u, side="right")),
                len(weights) - 1,
            )
            assert index == vectorized

    @given(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded_int_in_range(self, u, n):
        assert 0 <= bounded_int(u, n) < n


class TestBackendSelection:
    def test_active_backend_reports_name(self):
        assert backend_name() in ("python", "numpy")
        assert active().name == backend_name()

    def test_force_backend_restores(self):
        before = backend_name()
        with force_backend("python"):
            assert backend_name() == "python"
            codes, decode = active().intern(("a", "b", "a"))
            assert (list(codes), decode) == ([0, 1, 0], ("a", "b"))
        assert backend_name() == before

    @requires_numpy
    def test_numpy_backend_exposes_module(self):
        with force_backend("numpy"):
            assert active().numpy is not None
        with force_backend("python"):
            assert active().numpy is None
