"""Tests for the full-domain generalization lattice."""

import pytest

from repro.hierarchy import (
    Banding,
    HierarchyError,
    IntervalHierarchy,
    Lattice,
    TaxonomyHierarchy,
)


@pytest.fixture
def lattice():
    age = IntervalHierarchy("age", [Banding(10), Banding(20)], bounds=(0, 100))
    sex = TaxonomyHierarchy("sex", {"M": (), "F": ()})
    work = TaxonomyHierarchy(
        "work", {"Fed": ("Gov",), "State": ("Gov",), "Inc": ("Priv",)}
    )
    return Lattice([age, sex, work])  # heights (3, 1, 2)


class TestStructure:
    def test_heights(self, lattice):
        assert lattice.heights == (3, 1, 2)
        assert lattice.dimensions == 3

    def test_bottom_top(self, lattice):
        assert lattice.bottom == (0, 0, 0)
        assert lattice.top == (3, 1, 2)
        assert lattice.max_height == 6

    def test_size(self, lattice):
        assert len(lattice) == 4 * 2 * 3

    def test_contains(self, lattice):
        assert (0, 0, 0) in lattice
        assert (3, 1, 2) in lattice
        assert (4, 0, 0) not in lattice
        assert (0, 0) not in lattice
        assert "x" not in lattice

    def test_empty_rejected(self):
        with pytest.raises(HierarchyError):
            Lattice([])

    def test_nodes_enumeration(self, lattice):
        nodes = list(lattice.nodes())
        assert len(nodes) == len(lattice)
        assert len(set(nodes)) == len(nodes)

    def test_nodes_at_height(self, lattice):
        at_zero = list(lattice.nodes_at_height(0))
        assert at_zero == [(0, 0, 0)]
        at_one = set(lattice.nodes_at_height(1))
        assert at_one == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
        # Every node appears in exactly one stratum.
        total = sum(
            len(list(lattice.nodes_at_height(h)))
            for h in range(lattice.max_height + 1)
        )
        assert total == len(lattice)

    def test_nodes_at_invalid_height(self, lattice):
        assert list(lattice.nodes_at_height(-1)) == []
        assert list(lattice.nodes_at_height(99)) == []

    @pytest.mark.parametrize(
        "heights", [(3, 1, 2), (1,), (2, 2, 2, 2), (4, 1), (1, 3, 2, 1, 2)]
    )
    def test_strata_keep_the_lexicographic_filter_order(self, heights):
        """Samarati's early exit and loss tie-breaks read the stratum in
        the order the filter over ``nodes()`` produced."""
        chain = [
            TaxonomyHierarchy(
                f"h{i}", {"leaf": tuple(f"g{level}" for level in range(height - 1))}
            )
            for i, height in enumerate(heights)
        ]
        lattice = Lattice(chain)
        assert lattice.heights == heights
        for height in range(-1, lattice.max_height + 2):
            filtered = [node for node in lattice.nodes() if sum(node) == height]
            assert list(lattice.nodes_at_height(height)) == filtered
            # A second walk (served from the shared strata) is the same.
            assert list(lattice.nodes_at_height(height)) == filtered


class TestOrder:
    def test_successors(self, lattice):
        assert set(lattice.successors((0, 0, 0))) == {
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        }
        assert list(lattice.successors(lattice.top)) == []

    def test_predecessors(self, lattice):
        assert set(lattice.predecessors((1, 1, 0))) == {(0, 1, 0), (1, 0, 0)}
        assert list(lattice.predecessors(lattice.bottom)) == []

    def test_successor_predecessor_duality(self, lattice):
        for node in lattice.nodes():
            for successor in lattice.successors(node):
                assert node in set(lattice.predecessors(successor))

    def test_dominates(self, lattice):
        assert lattice.dominates((2, 1, 1), (1, 0, 1))
        assert not lattice.dominates((1, 0, 1), (2, 1, 1))
        assert lattice.dominates((1, 0, 1), (1, 0, 1))

    def test_height(self, lattice):
        assert lattice.height((2, 1, 1)) == 4

    def test_invalid_node_rejected(self, lattice):
        with pytest.raises(HierarchyError):
            lattice.height((9, 9, 9))

    def test_ancestors(self, lattice):
        ancestors = set(lattice.ancestors((2, 1, 1)))
        assert (3, 1, 2) in ancestors
        assert (2, 1, 1) not in ancestors
        assert all(lattice.dominates(a, (2, 1, 1)) for a in ancestors)

    def test_minimal_nodes(self, lattice):
        nodes = [(1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0)]
        minimal = lattice.minimal_nodes(nodes)
        assert set(minimal) == {(1, 0, 0), (0, 1, 0)}

    def test_minimal_nodes_deduplicates(self, lattice):
        assert lattice.minimal_nodes([(1, 0, 0), (1, 0, 0)]) == [(1, 0, 0)]

    def test_minimal_nodes_incomparable_all_kept(self, lattice):
        nodes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert set(lattice.minimal_nodes(nodes)) == set(nodes)
