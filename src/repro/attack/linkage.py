"""Linkage (re-identification) attack simulation.

The paper's property vectors quantify privacy *structurally* (class sizes,
breach probabilities).  This module grounds those numbers in an explicit
adversary: one who holds an external identified table with the victims'
quasi-identifier values (the classical Sweeney linkage attack) and matches
it against the released table.

Three standard adversary models are provided (Elliot/Dale terminology):

* **prosecutor** — targets a specific individual known to be in the
  release; risk is 1 / |match set|;
* **journalist** — targets anyone, wants to provably re-identify at least
  one record; risk is driven by the smallest match set;
* **marketer** — wants to re-identify as many records as possible in bulk;
  risk is the expected fraction of correct matches.

The per-tuple prosecutor risks form a property vector that coincides with
the ``breach_probability`` extractor when the external table equals the
original data — a consistency that tests verify — and the Monte Carlo
:func:`simulate_linkage` confirms the structural numbers empirically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..anonymize.engine import Anonymization
from ..core.vector import PropertyVector
from ..datasets.dataset import Dataset
from ..hierarchy.base import SUPPRESSED, Hierarchy, HierarchyError, Interval
from ..hierarchy.numeric import Span


class AttackError(ValueError):
    """Raised for inconsistent attack configurations."""


def cell_matches(released: Any, raw: Any, hierarchy: Hierarchy | None = None) -> bool:
    """Whether a released (possibly generalized) cell is consistent with a
    raw external value.

    Handles every generalized form the engine produces: raw equality,
    suppression token (matches anything), numeric intervals/spans, masked
    string codes (``1305*``), and frozensets of candidate values.  Taxonomy
    tokens (e.g. ``"Married"``) require the attribute's ``hierarchy`` so
    the adversary can test subtree membership; without it they match
    nothing but themselves (conservative).
    """
    if released == SUPPRESSED:
        return True
    if isinstance(released, frozenset):
        return raw in released
    if isinstance(released, (Interval, Span)):
        return raw in released
    if isinstance(released, str) and isinstance(raw, str) and "*" in released:
        if len(released) != len(raw):
            return False
        return all(r == "*" or r == c for r, c in zip(released, raw))
    if released == raw:
        return True
    if hierarchy is not None:
        try:
            return released in hierarchy.generalizations(raw)
        except HierarchyError:
            return False
    return False


def match_set(
    anonymization: Anonymization,
    external_row: Sequence[Any],
    hierarchies: Mapping[str, Hierarchy] | None = None,
) -> list[int]:
    """Row indices of the release consistent with one external QI record.

    ``external_row`` holds raw values for the quasi-identifier attributes,
    in schema QI order.  ``hierarchies`` (per QI attribute name) lets the
    adversary resolve taxonomy tokens; numeric intervals and string masks
    need none.
    """
    schema = anonymization.original.schema
    positions = schema.quasi_identifier_indices
    names = schema.quasi_identifier_names
    if len(external_row) != len(positions):
        raise AttackError(
            f"external record has {len(external_row)} values, expected "
            f"{len(positions)} quasi-identifiers"
        )
    lookup = hierarchies or {}
    matches = []
    for row_index, row in enumerate(anonymization.released):
        if all(
            cell_matches(row[position], value, lookup.get(name))
            for position, name, value in zip(positions, names, external_row)
        ):
            matches.append(row_index)
    return matches


def prosecutor_risks(
    anonymization: Anonymization,
    external: Dataset | None = None,
    hierarchies: Mapping[str, Hierarchy] | None = None,
) -> PropertyVector:
    """Per-tuple prosecutor re-identification risk (lower is better).

    With ``external=None`` the adversary is assumed to know the victims'
    exact quasi-identifiers (worst case: external table = original data).
    Each tuple's risk is ``1 / |match set|`` of its own external record.
    """
    source = external or anonymization.original
    if len(source) != len(anonymization):
        raise AttackError(
            "external table must align row-for-row with the release"
        )
    qi_positions = source.schema.quasi_identifier_indices
    risks = []
    for row_index in range(len(anonymization)):
        record = [source[row_index][p] for p in qi_positions]
        matches = match_set(anonymization, record, hierarchies)
        if not matches:
            raise AttackError(
                f"row {row_index}: release inconsistent with its own raw "
                "quasi-identifiers"
            )
        risks.append(1.0 / len(matches))
    return PropertyVector(
        risks, name="prosecutor-risk", higher_is_better=False
    )


@dataclass(frozen=True)
class LinkageReport:
    """Summary of a linkage attack against a release."""

    prosecutor_max: float
    prosecutor_mean: float
    journalist_risk: float
    marketer_risk: float
    records_at_max_risk: int

    def describe(self) -> str:
        """One-line human-readable rendering of the report."""
        return (
            f"prosecutor max={self.prosecutor_max:.4f} "
            f"mean={self.prosecutor_mean:.4f}  "
            f"journalist={self.journalist_risk:.4f}  "
            f"marketer={self.marketer_risk:.4f}  "
            f"at-max={self.records_at_max_risk}"
        )


def linkage_report(
    anonymization: Anonymization,
    external: Dataset | None = None,
    hierarchies: Mapping[str, Hierarchy] | None = None,
) -> LinkageReport:
    """Prosecutor / journalist / marketer risk summary."""
    risks = prosecutor_risks(anonymization, external, hierarchies)
    maximum = risks.max()
    mean = risks.mean()
    return LinkageReport(
        prosecutor_max=maximum,
        prosecutor_mean=mean,
        journalist_risk=maximum,
        marketer_risk=mean,
        records_at_max_risk=risks.values.count(maximum),
    )


def simulate_linkage(
    anonymization: Anonymization,
    trials: int = 1000,
    seed: int = 0,
    external: Dataset | None = None,
    hierarchies: Mapping[str, Hierarchy] | None = None,
) -> float:
    """Monte Carlo re-identification rate.

    Repeatedly picks a victim uniformly at random, lets the adversary link
    the victim's raw quasi-identifiers against the release and guess
    uniformly within the match set; returns the empirical success rate.
    In expectation this equals the mean prosecutor risk — the consistency
    check that validates the structural property vector empirically.
    """
    if trials < 1:
        raise AttackError(f"trials must be >= 1, got {trials}")
    source = external or anonymization.original
    rng = random.Random(seed)
    qi_positions = source.schema.quasi_identifier_indices
    successes = 0
    cache: dict[int, list[int]] = {}
    for _ in range(trials):
        victim = rng.randrange(len(anonymization))
        if victim not in cache:
            record = [source[victim][p] for p in qi_positions]
            cache[victim] = match_set(anonymization, record, hierarchies)
            if not cache[victim]:
                raise AttackError(
                    f"row {victim}: release inconsistent with its own raw "
                    "quasi-identifiers"
                )
        matches = cache[victim]
        guess = matches[rng.randrange(len(matches))]
        if guess == victim:
            successes += 1
    return successes / trials
