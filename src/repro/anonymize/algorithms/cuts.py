"""Hierarchy-cut recodings.

Top-Down Specialization (Fung et al.) and Bottom-Up Generalization (Wang et
al.) — both surveyed in the paper's introduction — operate on *cuts*
through the generalization hierarchies rather than uniform level vectors: a
taxonomy attribute may release "Government" for some subtree while keeping
other branches at leaf granularity.  This module provides the cut
representation those two algorithms share.

For taxonomy attributes a cut is a set of tokens covering every leaf
exactly once; for interval/masking hierarchies (whose levels are already
total orders) a cut degenerates to a single level.

The searches score cuts with :class:`CutEvaluator` over the columnar plane
(:meth:`Dataset.columns`): a :class:`CutCoding` maps each *distinct* value
of one column once, gathers token codes per row, and sums the per-distinct
loss table over the rows in row order, which reproduces the row-by-row
float sum exactly.  "Distinct" is exact, not mere equality: the plane's
codes keep ``7`` apart from ``7.0`` (and ``0.0`` from ``-0.0``), since a
cut may release them differently (masking works on ``str(value)``).  A trial
re-codes only the attribute it changes; violations are packed, grouped
and counted by the kernel layer.  The
module-level helpers (:func:`apply_cuts`, :func:`cut_violations`, ...) are
thin wrappers over the evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Mapping

from ...datasets.columnar import ColumnCodes
from ...datasets.dataset import Dataset
from ...hierarchy.base import SUPPRESSED, Hierarchy
from ...lint.redact import redact_value
from ...hierarchy.categorical import TaxonomyHierarchy
from ...hierarchy.numeric import Span
from ...kernels import active as active_kernels, pack_columns
from ..engine import Anonymization, released_from_classes


class CutError(ValueError):
    """Raised for invalid hierarchy cuts."""


@dataclass
class TaxonomyCut:
    """A cut through one taxonomy: a token set covering each leaf once."""

    hierarchy: TaxonomyHierarchy
    tokens: set[Hashable] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not self.tokens:
            self.tokens = {SUPPRESSED}
        self.validate()

    def validate(self) -> None:
        """Check the cut covers every leaf exactly once."""
        for leaf in self.hierarchy.leaves:
            # A group may legitimately carry the same label as its single
            # leaf (e.g. workclass "Private"); identical tokens on one path
            # are indistinguishable, so deduplicate before counting.
            path = dict.fromkeys(self.hierarchy.generalizations(leaf))
            covering = [token for token in path if token in self.tokens]
            if len(covering) != 1:
                raise CutError(
                    f"cut of {len(self.tokens)} token(s) covers leaf "
                    f"{redact_value(leaf, label='leaf')} {len(covering)} times "
                    "(must be exactly once)"
                )

    def map_value(self, value: Any) -> Hashable:
        """The cut token releasing ``value``."""
        for token in self.hierarchy.generalizations(value):
            if token in self.tokens:
                return token
        raise CutError(
            f"value {redact_value(value, label='cell')} not covered by cut"
        )

    def specializations(self) -> list[Hashable]:
        """Cut tokens that can be replaced by their children."""
        return [
            token
            for token in self.tokens
            if self.hierarchy.level_of(token) > 0
        ]

    def specialize(self, token: Hashable) -> "TaxonomyCut":
        """A new cut with ``token`` replaced by its children."""
        if token not in self.tokens:
            raise CutError(f"{redact_value(token, label='token')} not in cut")
        replaced = set(self.tokens)
        replaced.remove(token)
        replaced.update(self.hierarchy.children(token))
        return TaxonomyCut(self.hierarchy, replaced)

    def merge_candidates(self) -> dict[Hashable, frozenset]:
        """Mergeable parents mapped to the sibling group each replaces.

        A parent is mergeable when every sibling at the level below it is
        currently in the cut.  Level walking (rather than parent/children
        lookups) keeps this correct when a group label aliases its single
        leaf (e.g. a "Private" group containing only the "Private" leaf).
        """
        hierarchy = self.hierarchy
        candidates: dict[Hashable, frozenset] = {}
        for token in self.tokens:
            representative = next(
                leaf
                for leaf in hierarchy.leaves
                if token in hierarchy.generalizations(leaf)
            )
            path = hierarchy.generalizations(representative)
            # Highest level carrying the token's label (alias levels repeat
            # the label), then the next differing label is the strict parent.
            token_level = max(
                level for level, label in enumerate(path) if label == token
            )
            parent = None
            parent_level = None
            for level in range(token_level + 1, hierarchy.height + 1):
                if path[level] != token:
                    parent = path[level]
                    parent_level = level
                    break
            if parent is None or parent in candidates:
                continue
            siblings = frozenset(
                hierarchy.generalize(leaf, parent_level - 1)
                for leaf in hierarchy.leaves
                if hierarchy.generalize(leaf, parent_level) == parent
            )
            if siblings <= self.tokens:
                candidates[parent] = siblings
        return candidates

    def generalizations(self) -> list[Hashable]:
        """Parents that could replace their full sibling group."""
        return list(self.merge_candidates())

    def generalize(self, parent: Hashable) -> "TaxonomyCut":
        """A new cut with ``parent``'s sibling group replaced by ``parent``."""
        candidates = self.merge_candidates()
        if parent not in candidates:
            raise CutError(
                f"{redact_value(parent, label='token')} is not a mergeable "
                f"parent of this cut"
            )
        replaced = (set(self.tokens) - candidates[parent]) | {parent}
        return TaxonomyCut(self.hierarchy, replaced)

    def loss(self, value: Any) -> float:
        """LM loss of the value under this cut."""
        return self.hierarchy.released_loss(self.map_value(value))


@dataclass
class LevelCut:
    """Degenerate cut for totally ordered hierarchies: one level."""

    hierarchy: Hierarchy
    level: int

    def __post_init__(self) -> None:
        self.hierarchy.check_level(self.level)

    def map_value(self, value: Any) -> Hashable:
        """The generalized token releasing ``value``."""
        return self.hierarchy.generalize(value, self.level)

    def specializations(self) -> list[int]:
        """Levels that can be lowered (empty at level 0)."""
        return [self.level] if self.level > 0 else []

    def specialize(self, _token: int | None = None) -> "LevelCut":
        """The cut one level finer."""
        if self.level == 0:
            raise CutError("already at level 0")
        return LevelCut(self.hierarchy, self.level - 1)

    def generalizations(self) -> list[int]:
        """Levels that can be raised (empty at the top)."""
        return [self.level] if self.level < self.hierarchy.height else []

    def generalize(self, _token: int | None = None) -> "LevelCut":
        """The cut one level coarser."""
        if self.level >= self.hierarchy.height:
            raise CutError("already at the top level")
        return LevelCut(self.hierarchy, self.level + 1)

    def loss(self, value: Any) -> float:
        """LM loss of the value at this level."""
        return self.hierarchy.loss(value, self.level)


@dataclass
class NumericSplitCut:
    """Data-driven interval cut for numeric attributes (Fung's TDS).

    The attribute domain ``[low, high]`` is partitioned by ``splits`` into
    closed segments; a value releases as the :class:`Span` of its segment.
    Specialization inserts a new split inside one segment — TDS picks the
    median of the segment's observed values, so intervals adapt to the data
    instead of following fixed hierarchy bands.
    """

    bounds: tuple[float, float]
    splits: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        low, high = self.bounds
        if high <= low:
            raise CutError(f"invalid bounds ({low}, {high})")
        ordered = tuple(sorted(set(self.splits)))
        if any(not low < s < high for s in ordered):
            raise CutError("splits must lie strictly inside the bounds")
        self.splits = ordered

    def _edges(self) -> list[float]:
        low, high = self.bounds
        return [low, *self.splits, high]

    def segments(self) -> list[Span]:
        """The closed segments of the current partition, in order."""
        edges = self._edges()
        return [Span(a, b) for a, b in zip(edges[:-1], edges[1:])]

    def map_value(self, value: Any) -> Hashable:
        """The segment Span releasing ``value``."""
        if not isinstance(value, (int, float)):
            raise CutError(
                f"numeric cut cannot map {redact_value(value, label='cell')}"
            )
        low, high = self.bounds
        if not low <= value <= high:
            raise CutError(
                f"value {redact_value(value, label='cell')} outside bounds "
                f"({low}, {high})"
            )
        edges = self._edges()
        for a, b in zip(edges[:-1], edges[1:]):
            # Left-closed segments; the last one is closed on both ends.
            if a <= value < b or (b == high and value <= high):
                return Span(a, b)
        raise AssertionError("unreachable: bounds checked above")

    def specializations(self) -> list[int]:
        """Indices of segments that could be split (all of them; whether a
        useful split value exists depends on the data — see
        :meth:`split_value`)."""
        return list(range(len(self.splits) + 1))

    def split_value(self, segment: int, values: list[float]) -> float | None:
        """TDS's split choice: the median of the observed values strictly
        inside the segment, or ``None`` when no split separates anything."""
        span = self.segments()[segment]
        inside = sorted(v for v in values if v in span)
        if len(set(inside)) < 2:
            return None
        middle = inside[len(inside) // 2]
        if middle == inside[0]:
            # Median equals the minimum; split just above it instead.
            larger = [v for v in inside if v > middle]
            middle = larger[0]
        if not span.low < middle < span.high:
            return None
        return float(middle)

    def specialize(self, split: float) -> "NumericSplitCut":
        """A new cut with ``split`` added."""
        low, high = self.bounds
        if not low < split < high or split in self.splits:
            raise CutError(
                f"invalid new split {redact_value(split, label='split')}"
            )
        return NumericSplitCut(self.bounds, self.splits + (split,))

    def generalizations(self) -> list[int]:
        """Indices of removable splits."""
        return list(range(len(self.splits)))

    def generalize(self, index: int) -> "NumericSplitCut":
        """A new cut with the ``index``-th split removed."""
        if not 0 <= index < len(self.splits):
            raise CutError(f"no split at index {index}")
        remaining = self.splits[:index] + self.splits[index + 1 :]
        return NumericSplitCut(self.bounds, remaining)

    def loss(self, value: Any) -> float:
        """Normalized width of the value's segment."""
        low, high = self.bounds
        span = self.map_value(value)
        if isinstance(span, Span):
            return min(1.0, span.width / (high - low))
        return 0.0


Cut = TaxonomyCut | LevelCut | NumericSplitCut


def top_cuts(
    dataset: Dataset, hierarchies: Mapping[str, Hierarchy]
) -> dict[str, Cut]:
    """Fully generalized cuts for every QI (TDS's starting point)."""
    return {
        name: _make_cut(hierarchies[name], at_top=True)
        for name in dataset.schema.quasi_identifier_names
    }


def bottom_cuts(
    dataset: Dataset, hierarchies: Mapping[str, Hierarchy]
) -> dict[str, Cut]:
    """Raw-value cuts for every QI (BUG's starting point)."""
    return {
        name: _make_cut(hierarchies[name], at_top=False)
        for name in dataset.schema.quasi_identifier_names
    }


def _make_cut(hierarchy: Hierarchy, at_top: bool) -> Cut:
    if isinstance(hierarchy, TaxonomyHierarchy):
        if at_top:
            return TaxonomyCut(hierarchy, {SUPPRESSED})
        return TaxonomyCut(hierarchy, set(hierarchy.leaves))
    return LevelCut(hierarchy, hierarchy.height if at_top else 0)


class CutCoding:
    """One attribute's cut over its exactly interned column.

    ``map_value`` and ``loss`` run once per *distinct* value (the column's
    exact decode table, first-occurrence order), each on first use: a
    coding that is only grouped never scores loss and vice versa, so the
    first value that raises is the one a row-by-row pass would raise on.

    Attributes
    ----------
    attribute:
        The QI attribute name.
    cut:
        The cut this coding applies.
    """

    __slots__ = ("attribute", "cut", "_codes", "_decode", "_kernels",
                 "_values", "_rows", "_count", "_loss")

    def __init__(
        self,
        attribute: str,
        cut: Cut,
        column: ColumnCodes,
        kernels: Any,
    ):
        self.attribute = attribute
        self.cut = cut
        self._codes, self._decode = column.codes, column.decode
        self._kernels = kernels
        self._values: tuple[Hashable, ...] = ()
        self._rows: Any = None
        self._count = 0
        self._loss: float | None = None

    def tokens(self) -> tuple[Any, int]:
        """``(rows, count)``: per-row token codes (a kernel array) and the
        number of distinct tokens, codes numbered by first occurrence."""
        if self._rows is None:
            lookup: dict[Hashable, int] = {}
            token_of: list[int] = []
            values: list[Hashable] = []
            for value in self._decode:
                token = self.cut.map_value(value)
                values.append(token)
                token_of.append(lookup.setdefault(token, len(lookup)))
            kernels = self._kernels
            self._values = tuple(values)
            self._count = len(lookup)
            self._rows = kernels.gather(
                token_of, kernels.from_code_buffer(self._codes)
            )
        return self._rows, self._count

    def released(self) -> tuple[Any, tuple[Hashable, ...]]:
        """``(rows, decode)``: per-row codes of the released token objects
        (a kernel array) and those objects, coded by identity, since a
        release keys its cells by identity (a numeric cut builds a fresh
        :class:`Span` per distinct value)."""
        self.tokens()
        lookup: dict[int, int] = {}
        decode: list[Hashable] = []
        identity_code = []
        for token in self._values:
            code = lookup.setdefault(id(token), len(decode))
            if code == len(decode):
                decode.append(token)
            identity_code.append(code)
        kernels = self._kernels
        return kernels.gather(identity_code, kernels.from_code_buffer(self._codes)), tuple(decode)

    @property
    def loss(self) -> float:
        """Total LM loss of the column: the per-distinct ``cut.loss`` table
        summed over the rows in row order, so the float is the one a
        row-by-row ``sum`` produces."""
        if self._loss is None:
            table = [self.cut.loss(value) for value in self._decode]
            self._loss = sum(map(table.__getitem__, self._codes))
        return self._loss


class CutEvaluator:
    """Violations and loss of cut recodings over the columnar plane.

    Holds the current :class:`CutCoding` of every QI (schema order).  A
    search asks for a trial coding of one attribute (:meth:`coding`) and
    scores the current cuts with that attribute swapped in, so a trial
    maps only the distinct values of the attribute that changed; the other
    columns' token codes and losses are reused.
    """

    def __init__(self, dataset: Dataset, cuts: Mapping[str, Cut]):
        self._kernels = active_kernels()
        view = dataset.columns()
        self._columns = {
            name: view.column(name) for name in dataset.schema.quasi_identifier_names
        }
        self._current: dict[str, CutCoding] = {
            name: self.coding(name, cuts[name])
            for name in dataset.schema.quasi_identifier_names
        }

    def coding(self, attribute: str, cut: Cut) -> CutCoding:
        """A (lazy) coding of ``cut`` over ``attribute``'s column."""
        return CutCoding(
            attribute, cut, self._columns[attribute], self._kernels
        )

    def assign(self, coding: CutCoding) -> None:
        """Make ``coding`` the current cut of its attribute."""
        self._current[coding.attribute] = coding

    def cuts(self) -> dict[str, Cut]:
        """The current cut per QI attribute (schema order)."""
        return {name: coding.cut for name, coding in self._current.items()}

    def codings(self, trial: CutCoding | None = None) -> list[CutCoding]:
        """Current codings in schema order, with ``trial`` swapped in."""
        if trial is None:
            return list(self._current.values())
        return [
            trial if name == trial.attribute else coding
            for name, coding in self._current.items()
        ]

    def violations(self, k: int, trial: CutCoding | None = None) -> int:
        """Rows in groups smaller than ``k``."""
        kernels = self._kernels
        keys, bound = pack_columns(
            kernels, [coding.tokens() for coding in self.codings(trial)]
        )
        if keys is None:
            return 0
        return kernels.sum_less(kernels.key_sizes(keys, bound), k)

    def total_loss(self, trial: CutCoding | None = None) -> float:
        """Total LM loss, added over the QIs in schema order."""
        total = 0.0
        for coding in self.codings(trial):
            total += coding.loss
        return total


def apply_cuts(
    dataset: Dataset, cuts: Mapping[str, Cut], name: str
) -> Anonymization:
    """Materialize a cut recoding as an Anonymization.

    Rows are grouped by the identity of their released tokens (packed
    per-QI codes), and each class releases its first row's tokens.
    """
    qi_names = dataset.schema.quasi_identifier_names
    missing = set(qi_names) - set(cuts)
    if missing:
        raise CutError(f"missing cuts for {sorted(missing)}")
    kernels = active_kernels()
    released = [coding.released() for coding in CutEvaluator(dataset, cuts).codings()]
    keys, _ = pack_columns(
        kernels, [(codes, len(decode)) for codes, decode in released]
    )
    if keys is None:
        return released_from_classes(dataset, [0] * len(dataset), [()], name=name)
    reps, labels, _ = kernels.group(keys)
    columns = [
        map(decode.__getitem__, kernels.tolist(kernels.gather(codes, reps)))
        for codes, decode in released
    ]
    return released_from_classes(dataset, labels, list(zip(*columns)), name=name)


def cut_violations(dataset: Dataset, cuts: Mapping[str, Cut], k: int) -> int:
    """Rows in groups smaller than k under the cut recoding."""
    return CutEvaluator(dataset, cuts).violations(k)


def cut_total_loss(dataset: Dataset, cuts: Mapping[str, Cut]) -> float:
    """Total LM loss of the cut recoding."""
    return CutEvaluator(dataset, cuts).total_loss()
