"""Property-vector values and verdicts depend on neither backend nor row order.

Indices, comparators and bias summaries have one plain-Python
implementation whose sums go through ``math.fsum``, so:

* Adult 4k under Mondrian k=5/10 gives the same ``repr`` of every index
  value, bias-summary field and comparator verdict whether the release was
  computed on the numpy kernels (in process) or with
  ``REPRO_KERNELS=python`` (in a subprocess);
* permuting the rows of both vectors with one permutation leaves every
  index value bit-identical and every verdict unchanged — the
  permutation invariance evaluation by dominance needs.

Run as a script, this module prints the Adult summary as JSON.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bias import bias_summary
from repro.core.comparators import (
    LeastBiasedBetter,
    default_comparators,
    dominance_relation,
)
from repro.core.indices.binary import (
    binary_count,
    compare_hypervolume,
    coverage,
    epsilon_indicator,
    hypervolume,
    log_dominated_hypervolume,
    spread,
)
from repro.core.indices.unary import (
    GiniIndex,
    MaximumIndex,
    MeanIndex,
    MinimumIndex,
    QuantileIndex,
    RankIndex,
)
from repro.core.vector import PropertyVector
from repro.kernels import HAVE_NUMPY, force_backend

SRC = Path(__file__).resolve().parents[1] / "src"


def unary_indices(ideal: float) -> list:
    """Every unary index, with the rank index under each norm order."""
    return [
        MinimumIndex(),
        MeanIndex(),
        MaximumIndex(),
        QuantileIndex(0.25),
        QuantileIndex(0.5),
        GiniIndex(),
        RankIndex(ideal, order=1),
        RankIndex(ideal, order=2),
        RankIndex(ideal, order=math.inf),
    ]


def pair_summary(
    first: PropertyVector, second: PropertyVector, ideal: float, reference: float
) -> dict[str, str]:
    """``repr`` of every index value and verdict over one pair of vectors."""
    out: dict[str, str] = {}
    for tag, vector in (("first", first), ("second", second)):
        for index in unary_indices(ideal):
            out[f"{tag}.{index.name}"] = repr(index.value(vector))
        out[f"{tag}.log_hv"] = repr(log_dominated_hypervolume(vector, reference))
        for field, value in dataclasses.asdict(bias_summary(vector)).items():
            out[f"{tag}.bias.{field}"] = repr(value)
    for tag, (a, b) in (("fwd", (first, second)), ("bwd", (second, first))):
        out[f"{tag}.binary_count"] = repr(binary_count(a, b))
        out[f"{tag}.coverage"] = repr(coverage(a, b))
        out[f"{tag}.coverage_strict"] = repr(coverage(a, b, strict=True))
        out[f"{tag}.spread"] = repr(spread(a, b))
        out[f"{tag}.epsilon"] = repr(epsilon_indicator(a, b))
        out[f"{tag}.hv_sign"] = repr(compare_hypervolume(a, b, reference))
    out["dominance"] = dominance_relation(first, second).value
    comparators = dict(default_comparators(ideal, reference))
    comparators["bias"] = LeastBiasedBetter()
    for name, comparator in comparators.items():
        out[f"verdict.{name}"] = comparator.relation(first, second).value
    return out


def adult_summary() -> dict[str, str]:
    """The pair summary of Adult 4k Mondrian k=5 against k=10, for the
    breach-probability and class-size vectors."""
    from repro import Mondrian
    from repro.core.properties import breach_probability, equivalence_class_size
    from repro.datasets import adult_dataset, adult_hierarchies

    data, hierarchies = adult_dataset(4000), adult_hierarchies()
    releases = [Mondrian(k).anonymize(data, hierarchies) for k in (5, 10)]
    out: dict[str, str] = {}
    # (property, ideal raw value, hypervolume reference on oriented values)
    for extract, ideal, reference in (
        (breach_probability, 0.0, -1.0),
        (equivalence_class_size, float(len(data)), 0.0),
    ):
        first, second = (extract(release) for release in releases)
        for key, value in pair_summary(first, second, ideal, reference).items():
            out[f"{first.name}.{key}"] = value
    return out


@pytest.mark.skipif(not HAVE_NUMPY, reason="needs the numpy backend to compare")
def test_adult_values_identical_on_both_backends():
    with force_backend("numpy"):
        in_process = adult_summary()
    env = dict(os.environ, REPRO_KERNELS="python")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, __file__],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=True,
    )
    python_backend = json.loads(result.stdout)
    assert python_backend.pop("backend") == "python"
    differing = {
        key: (value, python_backend.get(key))
        for key, value in in_process.items()
        if python_backend.get(key) != value
    }
    assert not differing
    assert python_backend.keys() == in_process.keys()


finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def permuted_pairs(draw):
    """Two comparable vectors, plus one permutation of their rows."""
    size = draw(st.integers(min_value=1, max_value=40))
    column = st.lists(finite, min_size=size, max_size=size)
    first, second = draw(column), draw(column)
    order = draw(st.permutations(range(size)))
    higher_is_better = draw(st.booleans())
    return first, second, order, higher_is_better


@settings(max_examples=150, deadline=None)
@given(permuted_pairs())
def test_row_permutation_changes_no_value_or_verdict(case):
    first, second, order, higher_is_better = case

    def vectors(rows):
        return [
            PropertyVector([values[i] for i in rows], higher_is_better=higher_is_better)
            for values in (first, second)
        ]

    # The reference sits below every oriented value, so hypervolumes are defined.
    reference, ideal = -2e3, 1e3
    original = vectors(range(len(first)))
    permuted = vectors(order)
    assert pair_summary(*permuted, ideal, reference) == pair_summary(
        *original, ideal, reference
    )
    assert repr(hypervolume(*permuted, reference)) == repr(
        hypervolume(*original, reference)
    )


if __name__ == "__main__":
    from repro.kernels import backend_name

    print(json.dumps({"backend": backend_name(), **adult_summary()}))
