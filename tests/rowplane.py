"""The row plane: the reference recoding and grouping, kept as test oracles.

:func:`recode_rowwise` walks every cell through its hierarchy and builds
the released table row by row; :func:`row_classes` groups the released QI
tuples of all rows.  Production code recodes on the columnar plane and
stores a release as its recoding (:mod:`repro.anonymize.engine`); the tests
hold it to these two byte for byte.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.anonymize.engine import Anonymization, _validate_recode
from repro.anonymize.equivalence import EquivalenceClasses
from repro.datasets.dataset import Dataset
from repro.hierarchy.base import SUPPRESSED, Hierarchy


def recode_rowwise(
    dataset: Dataset,
    hierarchies: Mapping[str, Hierarchy],
    levels: Mapping[str, int],
    suppress: Iterable[int] = (),
    name: str | None = None,
) -> Anonymization:
    """The reference full-domain recoding (cell-at-a-time hierarchy walks)."""
    schema = dataset.schema
    qi_names = _validate_recode(dataset, hierarchies, levels)

    suppressed = frozenset(suppress)
    qi_positions = {name: schema.index_of(name) for name in qi_names}
    released_rows: list[tuple[Any, ...]] = []
    for row_index, row in enumerate(dataset):
        cells = list(row)
        for attribute in qi_names:
            position = qi_positions[attribute]
            # A suppressed row's value must generalize too: the level maps
            # the column's whole domain, as the columnar plane does.
            cells[position] = hierarchies[attribute].generalize(
                row[position], levels[attribute]
            )
            if row_index in suppressed:
                cells[position] = SUPPRESSED
        released_rows.append(tuple(cells))

    label = name or "recode[" + ",".join(
        f"{attribute}={levels[attribute]}" for attribute in qi_names
    ) + "]"
    return Anonymization(
        dataset,
        dataset.replace_rows(released_rows),
        suppressed=suppressed,
        levels={attribute: levels[attribute] for attribute in qi_names},
        name=label,
    )


def row_classes(anonymization: Anonymization) -> EquivalenceClasses:
    """The partition grouped from every released QI tuple."""
    return EquivalenceClasses(anonymization.released.quasi_identifier_tuples())
