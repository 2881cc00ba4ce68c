"""Taxonomy-tree hierarchies for categorical attributes."""

from __future__ import annotations

from typing import Any, Hashable, Mapping, Sequence

from ..lint.redact import redact_value
from .base import SUPPRESSED, Hierarchy, HierarchyError

TreeSpec = Mapping[str, Sequence[Any]]


class TaxonomyHierarchy(Hierarchy):
    """A categorical hierarchy defined by per-leaf ancestor paths.

    Parameters
    ----------
    name:
        Attribute name the hierarchy applies to.
    paths:
        Maps each leaf value to the tuple of its generalizations for levels
        ``1 .. height-1`` (level 0 is the leaf itself and the top level is the
        suppression token, both implicit).  All paths must have equal length
        so the hierarchy has a uniform height, as required by full-domain
        recoding.

    Example
    -------
    The marital-status hierarchy of Table 2::

        TaxonomyHierarchy("Marital Status", {
            "CF-Spouse": ("Married",),
            "Spouse Present": ("Married",),
            "Separated": ("Not Married",),
            ...
        })

    has height 2: level 0 = raw, level 1 = Married/Not Married, level 2 = "*".
    """

    def __init__(self, name: str, paths: Mapping[Any, Sequence[Hashable]]):
        super().__init__(name)
        if not paths:
            raise HierarchyError(f"hierarchy {name!r} has no leaves")
        lengths = {len(path) for path in paths.values()}
        if len(lengths) != 1:
            raise HierarchyError(
                f"hierarchy {name!r} has ragged paths (lengths {sorted(lengths)}); "
                "all leaves must generalize through the same number of levels"
            )
        self._paths: dict[Any, tuple[Hashable, ...]] = {
            leaf: tuple(path) for leaf, path in paths.items()
        }
        self._height = lengths.pop() + 1
        # Sizes of the subtree under each internal node, per level, for loss().
        self._coverage: list[dict[Hashable, int]] = []
        for level in range(1, self._height):
            counts: dict[Hashable, int] = {}
            for path in self._paths.values():
                token = path[level - 1]
                counts[token] = counts.get(token, 0) + 1
            self._coverage.append(counts)
        # A token label may coincide with a leaf only when the token groups
        # that leaf alone (then the two are semantically the same node, as
        # Adult's workclass group "Private"); any other collision makes cut
        # recodings ambiguous.
        for level, counts in enumerate(self._coverage, start=1):
            for token, covered in counts.items():
                if token not in self._paths:
                    continue
                if self._paths[token][level - 1] != token:
                    problem = "collides with an unrelated leaf value"
                elif covered > 1:
                    problem = (
                        f"is labelled like one of its {covered} leaves; a group "
                        "may share a leaf's label only when it holds that leaf alone"
                    )
                else:
                    continue
                raise HierarchyError(
                    f"hierarchy {name!r}: level-{level} token "
                    f"{redact_value(token, label='token')} {problem}"
                )

    @classmethod
    def from_tree(cls, name: str, tree: TreeSpec) -> "TaxonomyHierarchy":
        """Build from a nested-dict tree.

        ``tree`` maps internal node labels to children; children are leaf
        values or nested dicts.  All leaves must sit at the same depth.
        The root label is *not* used as a generalization level (the top level
        is always the suppression token).
        """
        if len(tree) != 1:
            raise HierarchyError("tree spec must have exactly one root")
        paths: dict[Any, tuple[Hashable, ...]] = {}

        def walk(node_label: str, children: Sequence[Any], trail: tuple[Hashable, ...]) -> None:
            for child in children:
                if isinstance(child, Mapping):
                    for label, grand_children in child.items():
                        walk(label, grand_children, trail + (label,))
                else:
                    if child in paths:
                        raise HierarchyError(f"duplicate leaf {child!r} in tree for {name!r}")
                    # Trail is root-to-parent; leaf paths want nearest-first.
                    paths[child] = tuple(reversed(trail))

        (root_label, root_children), = tree.items()
        walk(root_label, root_children, ())
        return cls(name, paths)

    @property
    def height(self) -> int:
        """Number of generalization levels above the leaves."""
        return self._height

    @property
    def leaves(self) -> tuple[Any, ...]:
        """All leaf values, in declaration order."""
        return tuple(self._paths)

    @property
    def domain_size(self) -> int:
        """Number of leaf values."""
        return len(self._paths)

    def _path(self, value: Any) -> tuple[Hashable, ...]:
        # A lookup, not ``except KeyError``: the KeyError would carry the
        # raw cell on the error's ``__context__``.
        path = self._paths.get(value)
        if path is None:
            raise HierarchyError(
                f"value {redact_value(value, label='cell')} not in domain of "
                f"hierarchy {self.name!r}"
            )
        return path

    # -- tree navigation (used by cut-based recoders) -------------------------

    def level_of(self, token: Hashable) -> int:
        """Level at which ``token`` lives: 0 for leaves, ``height`` for the
        suppression token."""
        if token == SUPPRESSED:
            return self._height
        if token in self._paths:
            return 0
        for level_index, counts in enumerate(self._coverage, start=1):
            if token in counts:
                return level_index
        raise HierarchyError(
            f"unknown token {redact_value(token, label='token')} in hierarchy "
            f"{self.name!r}"
        )

    def parent(self, token: Hashable) -> Hashable:
        """The token one level above ``token`` (top's parent is an error)."""
        level = self.level_of(token)
        if level >= self._height:
            raise HierarchyError(
                f"{redact_value(token, label='token')} is the top of hierarchy "
                f"{self.name!r}"
            )
        leaves = self.leaves_under(token)
        return self.generalize(leaves[0], level + 1)

    def children(self, token: Hashable) -> list[Hashable]:
        """Tokens one level below ``token`` (leaves for level-1 tokens)."""
        level = self.level_of(token)
        if level == 0:
            raise HierarchyError(
                f"{redact_value(token, label='token')} is a leaf of hierarchy "
                f"{self.name!r}"
            )
        children: list[Hashable] = []
        for leaf in self.leaves_under(token):
            child = self.generalize(leaf, level - 1)
            if child not in children:
                children.append(child)
        return children

    def leaves_under(self, token: Hashable) -> list[Any]:
        """Leaf values covered by ``token``, in declaration order."""
        level = self.level_of(token)
        if level == 0:
            return [token]
        return [
            leaf
            for leaf in self._paths
            if self.generalize(leaf, level) == token
        ]

    def generalize(self, value: Any, level: int) -> Hashable:
        self.check_level(level)
        path = self._path(value)  # validates domain membership at all levels
        if level == 0:
            return value
        if level == self._height:
            return SUPPRESSED
        return path[level - 1]

    def coverage(self, value: Any, level: int) -> int:
        """Number of leaf values covered by ``generalize(value, level)``."""
        self.check_level(level)
        if level == 0:
            return 1
        if level == self._height:
            return self.domain_size
        token = self._path(value)[level - 1]
        return self._coverage[level - 1][token]

    def loss(self, value: Any, level: int) -> float:
        covered = self.coverage(value, level)
        return self._coverage_loss(covered)

    def _coverage_loss(self, covered: int) -> float:
        if self.domain_size == 1:
            return 0.0 if covered <= 1 else 1.0
        return (covered - 1) / (self.domain_size - 1)

    def released_loss(self, cell: Any) -> float:
        """Loss of a released cell: leaf, internal token, suppression token,
        or a frozenset of leaves (set-valued local recoding)."""
        if isinstance(cell, frozenset):
            unknown = set(cell) - set(self._paths)
            if unknown:
                cells = redact_value(sorted(map(repr, unknown)), label="cells")
                raise HierarchyError(f"set cell contains non-domain values {cells}")
            return self._coverage_loss(len(cell))
        if cell in self._paths:
            return 0.0
        for counts in self._coverage:
            if cell in counts:
                return self._coverage_loss(counts[cell])
        return super().released_loss(cell)
