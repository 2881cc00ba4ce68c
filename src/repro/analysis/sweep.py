"""Parameter sweeps across anonymization configurations.

The k-sweep is the workhorse of disclosure-control evaluations: run an
algorithm family across k values and track privacy, bias and utility
measures side by side.  Returns plain row dicts so callers can print,
plot or assert on them.

The measure table :data:`SCALAR_MEASURES` is shared with the study
runtime, whose ``measure`` op evaluates the same columns per grid cell; for
process-parallel, memoized sweeps express the grid as a
:class:`~repro.runtime.study.StudySpec` with named algorithms and run it
with ``jobs > 1`` (``repro study``).
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from ..anonymize.algorithms.base import Anonymizer
from ..anonymize.engine import Anonymization
from ..core.indices.unary import GiniIndex
from ..core.properties import equivalence_class_size
from ..datasets.dataset import Dataset
from ..hierarchy.base import Hierarchy
from ..utility.discernibility import discernibility
from ..utility.loss_metric import general_loss

#: A measure over a release: name -> value.
Measure = Callable[[Anonymization, Mapping[str, Hierarchy]], float]


_GINI = GiniIndex()

#: Privacy + bias + utility measures of a standard sweep, by column id.
#: The study runtime evaluates the same table (``--scalar``).
SCALAR_MEASURES: dict[str, Measure] = {
    "k_achieved": lambda release, _h: float(release.k()),
    "suppressed": lambda release, _h: float(len(release.suppressed)),
    "class_gini": lambda release, _h: _GINI.value(equivalence_class_size(release)),
    "lm": lambda release, hierarchies: general_loss(release, hierarchies),
    "dm": lambda release, _h: float(discernibility(release)),
}


def default_measures() -> dict[str, Measure]:
    """A fresh copy of :data:`SCALAR_MEASURES`."""
    return dict(SCALAR_MEASURES)


def k_sweep(
    algorithm_factory: Callable[[int], Anonymizer],
    dataset: Dataset,
    hierarchies: Mapping[str, Hierarchy],
    ks: Sequence[int],
    measures: Mapping[str, Measure] | None = None,
) -> list[dict[str, float]]:
    """Run ``algorithm_factory(k)`` for each k and measure the releases.

    Returns one row dict per k: ``{"k": k, <measure>: value, ...}``.  An
    anonymizer's own error (e.g. an invalid k) propagates unchanged.
    """
    if not ks:
        raise ValueError("sweep needs at least one k")
    chosen = SCALAR_MEASURES if measures is None else measures
    rows = []
    for k in ks:
        release = algorithm_factory(k).anonymize(dataset, hierarchies)
        row: dict[str, float] = {"k": float(k)}
        for name, measure in chosen.items():
            row[name] = measure(release, hierarchies)
        rows.append(row)
    return rows


def format_sweep(rows: Sequence[Mapping[str, float]]) -> str:
    """Fixed-width table rendering of sweep rows."""
    if not rows:
        raise ValueError("no sweep rows to format")
    columns = list(rows[0])
    widths = {
        column: max(len(column), 10)
        for column in columns
    }
    header = "  ".join(column.rjust(widths[column]) for column in columns)
    lines = [header]
    for row in rows:
        lines.append(
            "  ".join(
                f"{row[column]:>{widths[column]}.4g}" for column in columns
            )
        )
    return "\n".join(lines)
