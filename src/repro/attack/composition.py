"""Composition (intersection) attacks across multiple releases.

When the same microdata is anonymized twice — two algorithms, two
parameterizations, or two publication rounds — an adversary holding both
releases intersects the match sets.  Each release may be k-anonymous on
its own while the intersection isolates individuals (the composition
problem, Ganta et al. KDD 2008).  In the paper's terms: the *pair* of
releases induces a per-tuple privacy property vector of its own, typically
dominated by either single release's vector.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..anonymize.engine import Anonymization
from ..core.vector import PropertyVector
from ..datasets.dataset import Dataset
from ..hierarchy.base import Hierarchy
from .linkage import AttackError, match_set


def _check_aligned(releases: Sequence[Anonymization]) -> None:
    if len(releases) < 2:
        raise AttackError("composition needs at least two releases")
    original = releases[0].original
    for release in releases[1:]:
        if release.original is not original and release.original != original:
            raise AttackError(
                "all releases must anonymize the same original data"
            )


def intersection_match_set(
    releases: Sequence[Anonymization],
    external_row: Sequence,
    hierarchies: Mapping[str, Hierarchy] | None = None,
) -> list[int]:
    """Rows consistent with the external record in *every* release."""
    _check_aligned(releases)
    surviving: set[int] | None = None
    for release in releases:
        matches = set(match_set(release, external_row, hierarchies))
        surviving = matches if surviving is None else surviving & matches
        if not surviving:
            break
    return sorted(surviving or ())


def composition_risks(
    releases: Sequence[Anonymization],
    external: Dataset | None = None,
    hierarchies: Mapping[str, Hierarchy] | None = None,
) -> PropertyVector:
    """Per-tuple re-identification risk against the combined releases
    (lower is better): ``1 / |∩ match sets|``."""
    _check_aligned(releases)
    source = external or releases[0].original
    if len(source) != len(releases[0]):
        raise AttackError("external table must align row-for-row")
    qi_positions = source.schema.quasi_identifier_indices
    risks = []
    for row_index in range(len(source)):
        record = [source[row_index][p] for p in qi_positions]
        matches = intersection_match_set(releases, record, hierarchies)
        if not matches:
            raise AttackError(
                f"row {row_index}: releases jointly inconsistent with its "
                "raw quasi-identifiers"
            )
        risks.append(1.0 / len(matches))
    return PropertyVector(
        risks, name="composition-risk", higher_is_better=False
    )


def composition_k(
    releases: Sequence[Anonymization],
    hierarchies: Mapping[str, Hierarchy] | None = None,
) -> int:
    """The effective k against the combined releases: the smallest joint
    match set over all individuals."""
    risks = composition_risks(releases, hierarchies=hierarchies)
    return round(1.0 / risks.max())
