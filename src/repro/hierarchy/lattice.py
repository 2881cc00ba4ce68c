"""The full-domain generalization lattice.

For quasi-identifier attributes with hierarchies of heights ``h_1 .. h_a``,
the full-domain recodings form a lattice: each node is a level vector
``(l_1, .., l_a)`` with ``0 <= l_i <= h_i``.  Samarati's algorithm searches
this lattice by height; Incognito walks its attribute-subset sub-lattices;
the optimal search enumerates it with monotonicity pruning.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, Mapping, Sequence

from .base import Hierarchy, HierarchyError

Node = tuple[int, ...]


@functools.lru_cache(maxsize=256)
def _strata(heights: tuple[int, ...]) -> tuple[tuple[Node, ...], ...]:
    """Every node of the lattice with these heights, bucketed by level sum,
    each bucket in lexicographic order: one pass over the product, shared
    by every lattice (and sub-lattice) of the same shape."""
    buckets: list[list[Node]] = [[] for _ in range(sum(heights) + 1)]
    for node in itertools.product(*(range(height + 1) for height in heights)):
        buckets[sum(node)].append(node)
    return tuple(map(tuple, buckets))


class Lattice:
    """Lattice of full-domain generalization level vectors.

    Parameters
    ----------
    hierarchies:
        One hierarchy per quasi-identifier attribute, in attribute order.
    """

    def __init__(self, hierarchies: Sequence[Hierarchy]):
        if not hierarchies:
            raise HierarchyError("lattice requires at least one hierarchy")
        self._hierarchies = tuple(hierarchies)
        self._heights = tuple(h.height for h in hierarchies)

    @property
    def hierarchies(self) -> tuple[Hierarchy, ...]:
        """The per-attribute hierarchies, in attribute order."""
        return self._hierarchies

    @property
    def heights(self) -> tuple[int, ...]:
        """Per-attribute hierarchy heights."""
        return self._heights

    @property
    def dimensions(self) -> int:
        """Number of quasi-identifier attributes."""
        return len(self._heights)

    @property
    def bottom(self) -> Node:
        """The all-raw node (no generalization)."""
        return (0,) * self.dimensions

    @property
    def top(self) -> Node:
        """The fully generalized node."""
        return self._heights

    @property
    def max_height(self) -> int:
        """Height of the top node (sum of hierarchy heights)."""
        return sum(self._heights)

    def __len__(self) -> int:
        size = 1
        for height in self._heights:
            size *= height + 1
        return size

    def __contains__(self, node: object) -> bool:
        if not isinstance(node, tuple) or len(node) != self.dimensions:
            return False
        return all(
            isinstance(level, int) and 0 <= level <= height
            for level, height in zip(node, self._heights)
        )

    def check_node(self, node: Node) -> None:
        """Raise unless ``node`` belongs to this lattice."""
        if node not in self:
            raise HierarchyError(f"{node!r} is not a node of {self!r}")

    def height(self, node: Node) -> int:
        """Sum of levels — the node's stratum in Samarati's search."""
        self.check_node(node)
        return sum(node)

    def successors(self, node: Node) -> Iterator[Node]:
        """Immediate generalizations (one attribute raised one level)."""
        self.check_node(node)
        for i, (level, height) in enumerate(zip(node, self._heights)):
            if level < height:
                yield node[:i] + (level + 1,) + node[i + 1 :]

    def predecessors(self, node: Node) -> Iterator[Node]:
        """Immediate specializations (one attribute lowered one level)."""
        self.check_node(node)
        for i, level in enumerate(node):
            if level > 0:
                yield node[:i] + (level - 1,) + node[i + 1 :]

    def nodes(self) -> Iterator[Node]:
        """All nodes, in lexicographic order."""
        return itertools.product(*(range(h + 1) for h in self._heights))

    def nodes_at_height(self, height: int) -> Iterator[Node]:
        """All nodes whose level sum equals ``height``, in lexicographic
        order (Samarati's early exit and loss tie-breaks rely on it)."""
        if not 0 <= height <= self.max_height:
            return iter(())
        return iter(_strata(self._heights)[height])

    def dominates(self, upper: Node, lower: Node) -> bool:
        """Whether ``upper`` is at least as generalized as ``lower`` in
        every attribute (the lattice order)."""
        self.check_node(upper)
        self.check_node(lower)
        return all(u >= l for u, l in zip(upper, lower))

    def ancestors(self, node: Node) -> Iterator[Node]:
        """All nodes strictly more generalized than ``node``."""
        self.check_node(node)
        ranges = (range(level, height + 1) for level, height in zip(node, self._heights))
        return (n for n in itertools.product(*ranges) if n != node)

    def minimal_nodes(self, nodes: Sequence[Node]) -> list[Node]:
        """The subset of ``nodes`` not dominated by any other member —
        Samarati's k-minimal candidates among a satisfying set."""
        unique = list(dict.fromkeys(nodes))
        for node in unique:
            self.check_node(node)
        return [
            node
            for node in unique
            if not any(
                other != node and all(u >= l for u, l in zip(node, other))
                for other in unique
            )
        ]

    def __repr__(self) -> str:
        names = ", ".join(h.name for h in self._hierarchies)
        return f"Lattice([{names}], heights={self._heights})"
