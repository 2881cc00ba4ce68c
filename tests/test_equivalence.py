"""Tests for equivalence class computation."""

import pytest

from repro.anonymize.equivalence import EquivalenceClasses
from repro.kernels import HAVE_NUMPY, force_backend

BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])


@pytest.fixture
def classes():
    # Keys: a a b a b c  -> classes {0,1,3}, {2,4}, {5}
    return EquivalenceClasses(["a", "a", "b", "a", "b", "c"])


class TestPartition:
    def test_class_count(self, classes):
        assert len(classes) == 3

    def test_members_in_row_order(self, classes):
        assert classes[0] == (0, 1, 3)
        assert classes[1] == (2, 4)
        assert classes[2] == (5,)

    def test_class_of(self, classes):
        assert classes.class_of(0) == 0
        assert classes.class_of(4) == 1
        assert classes.class_of(5) == 2

    def test_members_of(self, classes):
        assert classes.members_of(3) == (0, 1, 3)

    def test_size_of(self, classes):
        assert classes.size_of(2) == 2

    def test_key_of_class(self, classes):
        assert classes.key_of_class(1) == "b"

    def test_row_count(self, classes):
        assert classes.row_count == 6

    def test_iteration(self, classes):
        assert list(classes) == [(0, 1, 3), (2, 4), (5,)]


class TestVectors:
    def test_sizes_per_row(self, classes):
        assert classes.sizes() == [3, 3, 2, 3, 2, 1]

    def test_class_sizes(self, classes):
        assert classes.class_sizes() == [3, 2, 1]

    def test_minimum_size(self, classes):
        assert classes.minimum_size() == 1

    def test_minimum_size_empty(self):
        assert EquivalenceClasses([]).minimum_size() == 0

    def test_value_counts(self, classes):
        histograms = classes.value_counts(["x", "y", "x", "x", "x", "z"])
        assert histograms[0] == {"x": 2, "y": 1}
        assert histograms[1] == {"x": 2}
        assert histograms[2] == {"z": 1}

    def test_value_counts_length_validated(self, classes):
        with pytest.raises(ValueError, match="expected 6"):
            classes.value_counts(["x"])

    def test_sensitive_value_counts(self, classes):
        counts = classes.sensitive_value_counts(["x", "y", "x", "x", "x", "z"])
        assert counts == [2, 1, 2, 2, 2, 1]

    def test_paper_t3a_sensitive_counts(self):
        # Classes of T3a with marital values per Section 3 of the paper.
        keys = ["A", "B", "B", "A", "C", "C", "C", "A", "B", "C"]
        marital = [
            "CF-Spouse", "Separated", "Never Married", "CF-Spouse",
            "Divorced", "Spouse Absent", "Divorced", "Spouse Present",
            "Separated", "Separated",
        ]
        classes = EquivalenceClasses(keys)
        assert classes.sensitive_value_counts(marital) == [
            2, 2, 1, 2, 2, 1, 2, 1, 2, 1
        ]


def typed_histograms(histograms):
    """Each histogram as ``(type, repr, count)`` triples: the exact keys."""
    return [
        [(type(key).__name__, repr(key), count) for key, count in histogram.items()]
        for histogram in histograms
    ]


class TestValueCountKeys:
    """Which object keys a histogram entry, per backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mixed_int_and_float_keep_each_class_first_object(
        self, classes, backend
    ):
        with force_backend(backend):
            histograms = classes.value_counts([7, 7.0, 7.0, 7.0, 7, 7.0])
        assert typed_histograms(histograms) == [
            [("int", "7", 3)],
            [("float", "7.0", 2)],
            [("float", "7.0", 1)],
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_int_and_bool_keys_per_backend(self, classes, backend):
        # Both backends key each class by its own first object.
        with force_backend(backend):
            histograms = classes.value_counts([True, 1, 1, 1, True, 1])
        assert typed_histograms(histograms) == [
            [("bool", "True", 3)],
            [("int", "1", 2)],
            [("int", "1", 1)],
        ]
