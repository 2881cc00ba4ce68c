"""``repro.lint`` — static analysis for anonymization pipelines.

Two layers share one diagnostic core:

* **Layer 1, artifact analysis** (:mod:`repro.lint.artifacts`) validates
  the objects a run is configured with — hierarchy completeness and
  monotonicity, lattice well-formedness, privacy-parameter sanity, and the
  quality-index / r-property / property-vector contracts of Definitions
  1–3 — without anonymizing anything.  The recoding engine calls
  :func:`repro.lint.api.ensure_valid_hierarchies` and refuses to run on
  artifacts that fail.
* **Layer 2, codebase analysis** (:mod:`repro.lint.rules` on the
  :mod:`repro.lint.engine` visitor framework) enforces the repo rules
  ``REP001``–``REP005`` and ``REP008``: seeded randomness,
  tolerance-aware float comparison in comparators, no mutable defaults,
  no persisted set order, complete
  :class:`~repro.anonymize.algorithms.base.Anonymizer` subclasses, no
  per-row generalization loops — plus ``REP302``/``REP303``: durable
  writes go through the atomic writer (:mod:`repro.utility.atomic`).

Error messages that must identify a raw cell name it through
:func:`repro.lint.redact.redact_value`; ``tests/test_boundary_canary.py``
checks on behaviour that no raw cell leaves an anonymizer, the CSV loader
or a cut in an exception, a log record or a warning.

Run all of it from the command line with ``repro lint [paths] [--strict]
[--format json|sarif] [--select REP3] [--artifacts]``, or programmatically
through :mod:`repro.lint.api`.  Every rule is documented with examples in
``docs/static_analysis.md``.
"""

from .api import (
    ARTIFACT_RULES,
    check_bench_artifacts,
    check_cache_store,
    check_hierarchies,
    check_hierarchy,
    check_index_registry,
    check_lattice,
    check_obs_artifacts,
    check_privacy_parameters,
    check_profile,
    check_property_vectors,
    check_run_artifacts,
    check_shipped_artifacts,
    check_unary_index,
    ensure_valid_hierarchies,
    expand_selection,
    lint_file,
    lint_paths,
    lint_source,
    redact_value,
    registered_rules,
)
from .diagnostics import Diagnostic, DiagnosticCollector, LintError, Severity
from .engine import LintContext, Rule, RuleVisitor, register
from .report import render, render_json, render_text

__all__ = [
    "ARTIFACT_RULES",
    "check_bench_artifacts",
    "check_cache_store",
    "check_hierarchies",
    "check_hierarchy",
    "check_index_registry",
    "check_lattice",
    "check_obs_artifacts",
    "check_privacy_parameters",
    "check_profile",
    "check_property_vectors",
    "check_run_artifacts",
    "check_shipped_artifacts",
    "check_unary_index",
    "expand_selection",
    "Diagnostic",
    "DiagnosticCollector",
    "ensure_valid_hierarchies",
    "lint_file",
    "lint_paths",
    "lint_source",
    "LintContext",
    "LintError",
    "redact_value",
    "register",
    "registered_rules",
    "render",
    "render_json",
    "render_text",
    "Rule",
    "RuleVisitor",
    "Severity",
]
