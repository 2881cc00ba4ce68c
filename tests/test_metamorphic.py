"""Metamorphic checks: what a release shows does not depend on row order.

Evaluation by dominance compares releases through per-tuple property
vectors, so reordering the input table must not change the comparison
(Ruiz, arXiv:1701.08419).  On Adult 300 rows (seed 3, k=5), on both kernel
backends:

* permuting the rows leaves each subject's sorted equivalence-class-size,
  breach-probability and tuple-utility vectors unchanged, and every
  comparator verdict between two subjects (strict dominance and the five
  ▶-better comparators of Section 5) too;
* moving the non-QI columns ahead of the QIs, with the QIs kept in
  their relative order, leaves every sorted vector and every verdict
  unchanged too;
* duplicating every row doubles every class size at every node of the
  full-domain lattice (``RecodingWorkspace.class_sizes``).

Reversing the *QI* order is not asserted: it does change results, through
tie-breaks taken in schema order (Mondrian tries equally spread attributes
in QI order; bottomup and muargus scan their candidate steps in QI order).
Mondrian's and bottomup's class sizes change, and so does muargus's
tuple-utility vector.

``clustering`` (k-member) is not a subject: it grows each cluster greedily
from the rows in table order, so a permutation changes which rows share a
cluster and therefore its tuple-utility vector.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.matrix import relation_matrix
from repro.anonymize.algorithms.base import RecodingWorkspace
from repro.core.comparators import default_comparators
from repro.datasets import adult_dataset, adult_hierarchies
from repro.datasets.dataset import Dataset
from repro.datasets.schema import Schema
from repro.kernels import HAVE_NUMPY, force_backend
from repro.runtime.study import ALGORITHM_FACTORIES, VECTOR_PROPERTIES

ROWS, SEED, K = 300, 3, 5

SUBJECTS = (
    "datafly", "samarati", "incognito", "muargus", "mondrian", "topdown", "bottomup",
)

#: property -> (ideal raw value, hypervolume reference on oriented values).
PROPERTIES = {
    "equivalence-class-size": (float(ROWS), 0.0),
    "breach-probability": (0.0, -1.0),
    "tuple-utility": (7.0, -1.0),
}


@pytest.fixture(
    params=[
        "python",
        pytest.param(
            "numpy",
            marks=pytest.mark.skipif(not HAVE_NUMPY, reason="numpy backend not installed"),
        ),
    ]
)
def backend(request):
    with force_backend(request.param):
        yield request.param


def _tables():
    """The Adult table and a row permutation of it, as fresh objects."""
    base = adult_dataset(ROWS, seed=SEED)
    rows = list(base.rows)
    random.Random(SEED).shuffle(rows)
    return Dataset(base.schema, base.rows), Dataset(base.schema, rows)


def _comparison(data: Dataset) -> tuple[dict, dict]:
    """Sorted property vectors per subject, and every pairwise verdict."""
    hierarchies = adult_hierarchies()
    releases = {
        name: ALGORITHM_FACTORIES[name](k=K).anonymize(data, hierarchies)
        for name in SUBJECTS
    }
    sorted_vectors, verdicts = {}, {}
    for prop, (ideal, reference) in PROPERTIES.items():
        vectors = {
            name: VECTOR_PROPERTIES[prop](release, hierarchies)
            for name, release in releases.items()
        }
        for name, vector in vectors.items():
            sorted_vectors[prop, name] = sorted(vector.values)
        comparators = {"dominance": None, **default_comparators(ideal, reference)}
        for label, comparator in comparators.items():
            for pair, relation in relation_matrix(vectors, comparator).items():
                verdicts[prop, label, pair] = relation.value
    return sorted_vectors, verdicts


def test_row_permutation_changes_no_sorted_vector_or_verdict(backend):
    original, permuted = _tables()
    vectors, verdicts = _comparison(original)
    permuted_vectors, permuted_verdicts = _comparison(permuted)
    changed = [key for key in vectors if permuted_vectors[key] != vectors[key]]
    assert not changed
    assert permuted_verdicts == verdicts
    # The verdicts are not all ties: the subjects do differ.
    assert set(verdicts.values()) - {"equivalent"}


def test_non_qi_columns_first_changes_no_sorted_vector_or_verdict(backend):
    original, _ = _tables()
    schema = original.schema
    order = [
        position for qi_first in (False, True)
        for position, attribute in enumerate(schema.attributes)
        if attribute.is_quasi_identifier is qi_first
    ]
    assert order != list(range(len(schema)))
    moved = Dataset(
        Schema(tuple(schema.attributes[position] for position in order)),
        [tuple(row[position] for position in order) for row in original.rows],
    )
    assert moved.schema.quasi_identifier_names == schema.quasi_identifier_names
    assert _comparison(moved) == _comparison(original)


def test_duplicating_every_row_doubles_every_class_size(backend):
    base = adult_dataset(ROWS, seed=SEED)
    hierarchies = adult_hierarchies()
    single = RecodingWorkspace(Dataset(base.schema, base.rows), hierarchies)
    double = RecodingWorkspace(Dataset(base.schema, base.rows * 2), hierarchies)
    nodes = list(single.lattice.nodes())
    assert len(nodes) == len(single.lattice) > 1
    for node in nodes:
        sizes = [int(size) for size in single.class_sizes(node)]
        doubled = [int(size) for size in double.class_sizes(node)]
        assert doubled == [2 * size for size in sizes], node
