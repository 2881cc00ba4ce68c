"""CSV round-trip for datasets (persisting workloads and releases)."""

from __future__ import annotations

import csv
import re
from pathlib import Path
from typing import Any

from ..hierarchy.base import Interval
from ..hierarchy.numeric import Span
from ..lint.redact import redact_value
from .dataset import Dataset, DatasetError
from .schema import AttributeKind, Schema

#: Separator for set-valued (frozenset) cells in CSV form.
_SET_SEPARATOR = "|"


def _serialize_cell(cell: Any) -> str:
    if isinstance(cell, frozenset):
        return "{" + _SET_SEPARATOR.join(sorted(map(str, cell))) + "}"
    return str(cell)


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write the dataset (header + rows) as CSV.

    Generalized cells serialize losslessly: intervals in the paper's
    ``(low,high]`` notation, Mondrian spans as ``[low-high]``, set-valued
    cells as ``{a|b|c}``.
    """
    # Late import: this module loads inside the anonymize engine's import
    # chain, and repro.utility's package init re-enters that chain.
    from ..utility.atomic import atomic_writer

    with atomic_writer(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(dataset.schema.names)
        for row in dataset:
            # This IS the sanctioned release writer — the one place cells
            # may cross the boundary.
            writer.writerow([_serialize_cell(cell) for cell in row])


def _parse_number(text: str) -> float:
    # Raised outside the ``except``: float()'s ValueError quotes the raw
    # text and would ride along as the error's ``__context__``.
    try:
        return float(text)
    except ValueError:
        pass
    raise DatasetError(
        f"unparseable numeric cell {redact_value(text, label='cell')}"
    )


def _parse_cell(text: str, kind: AttributeKind) -> Any:
    if text.startswith("{") and text.endswith("}"):
        return frozenset(text[1:-1].split(_SET_SEPARATOR))
    if kind is AttributeKind.NUMERIC:
        if text.startswith("(") and text.endswith("]"):
            low_text, high_text = text[1:-1].split(",")
            return Interval(_parse_number(low_text), _parse_number(high_text))
        if text.startswith("[") and text.endswith("]"):
            match = re.fullmatch(
                r"\[(-?[0-9.]+)-(-?[0-9.]+)\]", text
            )
            if not match:
                raise DatasetError(
                    f"unparseable span cell {redact_value(text, label='cell')}"
                )
            return Span(float(match.group(1)), float(match.group(2)))
        if text == "*":
            return text
        number = _parse_number(text)
        return int(number) if number.is_integer() else number
    return text


def read_csv(path: str | Path, schema: Schema) -> Dataset:
    """Read a CSV written by :func:`write_csv` back under ``schema``.

    Numeric columns are parsed as ints/floats; interval cells in ``(l,h]``
    notation are restored as :class:`Interval`; ``*`` stays the suppression
    token.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        if tuple(header) != schema.names:
            raise DatasetError(
                f"{path}: header {redact_value(tuple(header), label='header')} "
                f"does not match schema {schema.names!r}"
            )
        kinds = [attribute.kind for attribute in schema]
        rows = [
            tuple(_parse_cell(cell, kind) for cell, kind in zip(line, kinds))
            for line in reader
        ]
    return Dataset(schema, rows)
