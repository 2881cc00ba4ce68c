"""Boundary canary: no raw cell leaves an anonymizer except in its release.

The paper compares anonymizers by the property vectors of the generalized
table each one releases (Definition 1), so that table must be the only
thing an anonymizer lets out.  This test seeds tables with unique sentinel
cells, as strings and as numbers, inside and outside each hierarchy's
domain, and drives

* every anonymizer of :data:`repro.runtime.study.ALGORITHM_FACTORIES`, on
  the paper's Table 1 schema and on a small Adult table;
* the released-cell scoring of every hierarchy (``released_loss``);
* the header, span-cell and number error paths of
  :func:`repro.datasets.io.read_csv`;
* the ``map_value``/``generalize``/``specialize`` error paths of
  :class:`TaxonomyCut` and the ``map_value``/``specialize`` error paths of
  :class:`NumericSplitCut` (its ``generalize`` takes a split index, not a
  cell);
* the construction error of a taxonomy whose leaf-labelled group (Adult's
  workclass "Private") is given a second leaf.

No sentinel may appear in an exception (its ``str``, its ``args`` or any
exception on its ``__cause__``/``__context__`` chain), a log record or a
warning.  A message names a cell only through
:func:`repro.lint.redact.redact_value`.
"""

from __future__ import annotations

import csv
import logging
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.anonymize.algorithms.cuts import NumericSplitCut, TaxonomyCut
from repro.datasets import Dataset, adult_dataset, adult_hierarchies, paper_tables
from repro.datasets.io import read_csv
from repro.hierarchy import (
    HierarchyError,
    IntervalHierarchy,
    MaskingHierarchy,
    TaxonomyHierarchy,
)
from repro.runtime.study import ALGORITHM_FACTORIES

#: Keeps the genetic search small; every other anonymizer runs as a study
#: builds it from ``k`` alone.
PARAMS = {"genetic": {"population_size": 8, "generations": 4}}

#: Letters that never occur in a message by themselves: no hex digest, type
#: name or English word holds a run of them.
SENTINEL_LETTERS = "QXZJKV"

#: How a planted cell relates to its attribute's hierarchy: inside the
#: domain (the hierarchy is widened to hold it), outside it, or of the other
#: type (a number in a string column, a string in a numeric one).
MODES = ("in", "out", "foreign")


def paper_workload():
    hierarchies = {
        "Zip Code": paper_tables.zip_hierarchy(),
        "Age": paper_tables.age_hierarchy(10, 5),
        paper_tables.SENSITIVE_ATTRIBUTE: paper_tables.marital_hierarchy(),
    }
    return paper_tables.table1(), hierarchies


def adult_workload():
    return adult_dataset(30, seed=5), adult_hierarchies()


WORKLOADS = {"paper": paper_workload, "adult": adult_workload}


# -- what a block lets out ---------------------------------------------------


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.records = []

    def emit(self, record):
        self.records.append(record)


def exception_texts(exc):
    """``str`` and ``args`` of ``exc`` and of everything on its chain."""
    texts, seen, pending = [], set(), [exc]
    while pending:
        current = pending.pop()
        if current is None or id(current) in seen:
            continue
        seen.add(id(current))
        texts += [str(current), repr(current.args)]
        pending += [current.__cause__, current.__context__]
    return texts


def escaped_texts(action):
    """Every text ``action()`` lets out: the exception it raises, with its
    chain, and the log records and warnings it emits."""
    handler = _Records()
    root = logging.getLogger()
    level = root.level
    root.addHandler(handler)
    root.setLevel(logging.DEBUG)
    texts = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                action()
            except Exception as exc:
                texts += exception_texts(exc)
    finally:
        root.removeHandler(handler)
        root.setLevel(level)
    texts += [handler.format(record) for record in handler.records]
    texts += [str(warning.message) for warning in caught]
    return texts


def assert_no_leak(sentinels, action):
    texts = escaped_texts(action)
    leaked = sorted(
        {str(cell) for cell in sentinels for text in texts if str(cell) in text}
    )
    assert not leaked, f"sentinel cells {leaked} escaped in {texts}"


# -- planting sentinels ------------------------------------------------------


class Sentinels:
    """Unique sentinel cells for one example, sized for each hierarchy."""

    def __init__(self, letters, salt):
        self.letters = letters
        self.salt = salt
        self.count = 0

    def _next(self):
        self.count += 1
        return self.count

    def text(self, length=5):
        return f"{self._next()}{self.letters}"[:length]

    def number(self, low, high, inside):
        index = self._next()
        whole = int(low) + index if inside else int(high) + 1000 * index
        return float(f"{whole}.{self.salt}1")

    def integer(self):
        return 10_000_000 * self._next() + self.salt


#: A fresh sentinel source per draw (each counts its own cells).
SENTINELS = st.builds(
    Sentinels,
    st.text(SENTINEL_LETTERS, min_size=4, max_size=4),
    st.integers(100_000, 999_999),
)


def plant(sentinels, hierarchy, mode):
    """A sentinel cell for ``hierarchy`` in ``mode``, and the hierarchy
    widened to hold it when ``mode`` is ``"in"``."""
    if isinstance(hierarchy, IntervalHierarchy):
        if mode == "foreign":
            return sentinels.text(), hierarchy
        low, high = hierarchy.bounds
        return sentinels.number(low, high, mode == "in"), hierarchy
    if mode == "foreign":
        return sentinels.integer(), hierarchy
    if isinstance(hierarchy, MaskingHierarchy):
        # A masking hierarchy's height is its code length.
        cell = sentinels.text(hierarchy.height)
        if mode == "in":
            domain = set(hierarchy.domain) | {cell}
            hierarchy = MaskingHierarchy(hierarchy.name, hierarchy.height, domain)
        return cell, hierarchy
    cell = sentinels.text()
    if mode == "in":
        hierarchy = with_leaf(hierarchy, cell)
    return cell, hierarchy


def with_leaf(hierarchy, leaf):
    """``hierarchy`` with ``leaf`` added beside its first leaf whose groups
    are not labelled like a leaf (a group such as Adult's "Private", named
    after its one leaf, cannot take a second one)."""
    paths = {
        existing: tuple(hierarchy.generalizations(existing)[1:-1])
        for existing in hierarchy.leaves
    }
    sibling = next(
        existing for existing, path in paths.items() if not set(path) & set(paths)
    )
    paths[leaf] = paths[sibling]
    return TaxonomyHierarchy(hierarchy.name, paths)


@st.composite
def seeded_tables(draw, workload):
    """A workload table with sentinel cells planted in its QI columns."""
    dataset, hierarchies = WORKLOADS[workload]()
    hierarchies = dict(hierarchies)
    sentinels = draw(SENTINELS)
    names = dataset.schema.names
    cells = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(dataset) - 1),
                st.sampled_from(dataset.schema.quasi_identifier_names),
                st.sampled_from(MODES),
            ),
            min_size=1,
            max_size=4,
            unique_by=lambda planted: planted[:2],
        )
    )
    rows = [list(row) for row in dataset]
    planted = []
    for row, attribute, mode in cells:
        cell, hierarchies[attribute] = plant(sentinels, hierarchies[attribute], mode)
        rows[row][names.index(attribute)] = cell
        planted.append(cell)
    return Dataset(dataset.schema, [tuple(row) for row in rows]), hierarchies, planted


common = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- anonymizers and hierarchies ---------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("algorithm", sorted(ALGORITHM_FACTORIES))
@common
@given(data=st.data())
def test_anonymizers_release_no_sentinel_in_errors(algorithm, workload, data):
    dataset, hierarchies, planted = data.draw(seeded_tables(workload))
    k = data.draw(st.sampled_from((2, 3)))
    anonymizer = ALGORITHM_FACTORIES[algorithm](k=k, **PARAMS.get(algorithm, {}))
    assert_no_leak(planted, lambda: anonymizer.anonymize(dataset, hierarchies))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@common
@given(sentinels=SENTINELS)
def test_released_loss_names_no_sentinel(workload, sentinels):
    _, hierarchies = WORKLOADS[workload]()
    for hierarchy in hierarchies.values():
        for mode in ("out", "foreign"):
            cell, _ = plant(sentinels, hierarchy, mode)
            for released in (cell, frozenset({cell})):
                assert_no_leak([cell], lambda: hierarchy.released_loss(released))


# -- the CSV loader ------------------------------------------------------------


def read_rows(schema, lines):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "table.csv"
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerows(lines)
        read_csv(path, schema)


@common
@given(sentinels=SENTINELS)
def test_read_csv_errors_name_no_sentinel(sentinels):
    schema = paper_tables.schema()
    header = list(schema.names)
    row = ["13053", "28", "Divorced"]
    name = sentinels.text()
    assert_no_leak([name], lambda: read_rows(schema, [[*header[:2], name], row]))
    for shape in ("[{}-1]", "[1-{}]", "({},1]", "(1,{}]", "{}"):
        cell = sentinels.text()
        age = shape.format(cell)
        assert_no_leak([cell], lambda: read_rows(schema, [header, [row[0], age, row[2]]]))


# -- cut error paths -------------------------------------------------------------


@common
@given(sentinels=SENTINELS, data=st.data())
def test_cut_errors_name_no_sentinel(sentinels, data):
    marital = paper_tables.marital_hierarchy()
    outside = sentinels.text()
    cut = TaxonomyCut(marital)
    for action in (cut.map_value, cut.generalize, cut.specialize):
        assert_no_leak([outside], lambda: action(outside))
    inside = sentinels.text()
    # ``with_leaf`` files the sentinel under "Married"; a cut whose tokens
    # were narrowed after validation no longer covers it.
    uncovered = TaxonomyCut(with_leaf(marital, inside))
    uncovered.tokens = {"Not Married"} if data.draw(st.booleans()) else set()
    assert_no_leak([inside], lambda: uncovered.map_value(inside))

    low, high = data.draw(st.sampled_from(((0.0, 120.0), (17.0, 90.0))))
    numeric = NumericSplitCut((low, high), ((low + high) / 2,))
    for cell in (sentinels.text(), sentinels.number(low, high, inside=False)):
        for action in (numeric.map_value, numeric.specialize):
            assert_no_leak([cell], lambda: action(cell))


# -- taxonomy construction -------------------------------------------------------


@common
@given(sentinels=SENTINELS)
def test_taxonomy_construction_errors_name_no_sentinel(sentinels):
    workclass = adult_hierarchies()["workclass"]
    paths = {
        leaf: tuple(workclass.generalizations(leaf)[1:-1]) for leaf in workclass.leaves
    }
    # A sentinel leaf filed under the group named after its one leaf, and a
    # sentinel that labels its own group while the group holds another leaf.
    beside, label = sentinels.text(), sentinels.text()
    for sentinel, spec in (
        (beside, {**paths, beside: paths["Private"]}),
        (label, {**paths, label: (label,), "Private": (label,)}),
    ):
        with pytest.raises(HierarchyError):
            TaxonomyHierarchy("workclass", spec)
        assert_no_leak([sentinel], lambda: TaxonomyHierarchy("workclass", spec))
