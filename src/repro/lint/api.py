"""Public lint API — the single entry point other subsystems use.

Re-exports the Layer 1 artifact checkers and the Layer 2 path runner, and
adds :func:`ensure_valid_hierarchies`: the memoized hard gate the recoding
engine calls before touching microdata.  A hierarchy failing completeness
(``ART001``) or monotonicity (``ART002``) raises :class:`LintError`
carrying the diagnostics instead of silently producing a wrong release.
"""

from __future__ import annotations

import weakref
from typing import Mapping

from ..hierarchy.base import Hierarchy
from .artifacts import (
    ARTIFACT_RULES,
    check_bench_artifacts,
    check_cache_store,
    check_hierarchy,
    check_obs_artifacts,
    check_run_artifacts,
)
from .diagnostics import (
    Diagnostic,
    LintError,
    Severity,
    has_blocking,
    sort_diagnostics,
)
from .engine import (
    expand_selection,
    lint_file,
    lint_paths,
    lint_source,
    registered_rules,
)
from .redact import redact_value
from .report import render
from . import rules as _rules  # noqa: F401 — importing registers the REP0xx/REP3xx rules

__all__ = [
    "ARTIFACT_RULES",
    "check_bench_artifacts",
    "check_cache_store",
    "check_hierarchy",
    "check_obs_artifacts",
    "check_run_artifacts",
    "Diagnostic",
    "ensure_valid_hierarchies",
    "expand_selection",
    "has_blocking",
    "lint_file",
    "lint_paths",
    "lint_source",
    "LintError",
    "redact_value",
    "registered_rules",
    "render",
    "Severity",
    "sort_diagnostics",
]

#: Hierarchies already validated by the gate (identity-keyed, weak).
_validated_hierarchies: "weakref.WeakSet[Hierarchy]" = weakref.WeakSet()


def ensure_valid_hierarchies(hierarchies: Mapping[str, Hierarchy]) -> None:
    """Refuse malformed hierarchies before they recode any microdata.

    Validates each hierarchy's completeness and monotonicity once per
    object (results are memoized in a weak set, so the per-node hot path
    of a lattice search pays nothing after the first call) and raises
    :class:`LintError` with the structured diagnostics when a hierarchy is
    broken.
    """
    blocking: list[Diagnostic] = []
    validated: list[Hierarchy] = []
    for hierarchy in hierarchies.values():
        try:
            if hierarchy in _validated_hierarchies:
                continue
        except TypeError:  # unhashable/weakref-less stub: validate every time
            pass
        blocking.extend(check_hierarchy(hierarchy))
        validated.append(hierarchy)
    if blocking:
        ordered = sort_diagnostics(blocking)
        summary = "; ".join(diagnostic.format() for diagnostic in ordered[:3])
        if len(ordered) > 3:
            summary += f"; … {len(ordered) - 3} more"
        raise LintError(
            f"refusing to recode with malformed hierarchies: {summary}",
            ordered,
        )
    for hierarchy in validated:
        try:
            # Idempotent weak-set memo of a pure validation; never observed
            # by results.
            _validated_hierarchies.add(hierarchy)
        except TypeError:
            pass


def clear_validation_cache() -> None:
    """Drop the memoized hierarchy validations (for tests)."""
    _validated_hierarchies.clear()
