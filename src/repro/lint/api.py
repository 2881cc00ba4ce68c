"""Public lint API — the single entry point other subsystems use.

Re-exports the Layer 1 artifact checkers and the Layer 2 path runner, and
adds the two integration surfaces:

* :func:`ensure_valid_hierarchies` — the memoized hard gate the recoding
  engine calls before touching microdata: a hierarchy failing completeness
  (``ART001``) or monotonicity (``ART002``) raises :class:`LintError`
  carrying the diagnostics instead of silently producing a wrong release;
* :func:`check_shipped_artifacts` — full artifact analysis of everything
  the package ships (the paper's Tables 1–3 schemes and the Adult
  workload), used by ``repro lint --artifacts`` and CI.
"""

from __future__ import annotations

import weakref
from typing import Any, Iterable, Mapping

from ..hierarchy.base import Hierarchy
from .artifacts import (
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
    check_unary_index,
)
from .diagnostics import (
    Diagnostic,
    LintError,
    Severity,
    has_blocking,
    sort_diagnostics,
)
from .baseline import apply_baseline, load_baseline, write_baseline
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
from . import taint as _taint  # noqa: F401 — importing registers REP101-REP104

__all__ = [
    "apply_baseline",
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
    "Diagnostic",
    "ensure_valid_hierarchies",
    "expand_selection",
    "has_blocking",
    "lint_file",
    "lint_paths",
    "lint_source",
    "LintError",
    "load_baseline",
    "redact_value",
    "registered_rules",
    "render",
    "Severity",
    "sort_diagnostics",
    "write_baseline",
]

#: Rules whose ERROR findings make a recoding semantically wrong and
#: therefore block the engine (loss-contract issues only distort utility
#: metrics and stay advisory at the gate).
_GATE_RULES = {"ART001", "ART002"}

#: Hierarchies already validated by the gate (identity-keyed, weak).
_validated_hierarchies: "weakref.WeakSet[Hierarchy]" = weakref.WeakSet()


def gate_diagnostics(hierarchy: Hierarchy) -> list[Diagnostic]:
    """The blocking findings for one hierarchy (``ART001``/``ART002`` errors)."""
    return [
        diagnostic
        for diagnostic in check_hierarchy(hierarchy)
        if diagnostic.rule in _GATE_RULES
        and diagnostic.severity is Severity.ERROR
    ]


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
        blocking.extend(gate_diagnostics(hierarchy))
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


def check_shipped_artifacts() -> list[Diagnostic]:
    """Artifact analysis of every artifact the package ships.

    Covers the paper's running example (Table 1 schema, the T3a/T3b/T3c
    generalization schemes of Tables 2–3) and the synthetic Adult workload:
    hierarchies, the full-domain lattice over the Adult QIs, the default
    privacy models sized against the workload, the unary index registry
    and the stock r-property profiles.
    """
    # Late imports: datasets/core pull in the anonymization engine, which
    # itself imports this module for the gate.
    from ..core import indices as index_module
    from ..core.properties import equivalence_class_size
    from ..core.rproperty import privacy_profile, privacy_utility_profile
    from ..datasets import adult_dataset, adult_hierarchies
    from ..datasets import paper_tables
    from ..hierarchy.lattice import Lattice
    from ..privacy import (
        DistinctLDiversity,
        KAnonymity,
        PSensitiveKAnonymity,
        TCloseness,
    )

    findings: list[Diagnostic] = []

    # Paper running example: every scheme's hierarchies, sampled on Table 1.
    table1 = paper_tables.table1()
    age_sample = table1.column("Age")
    paper_checks = {
        "paper:zip": (paper_tables.zip_hierarchy(), table1.column("Zip Code")),
        "paper:marital": (
            paper_tables.marital_hierarchy(),
            table1.column(paper_tables.SENSITIVE_ATTRIBUTE),
        ),
        "paper:age[T3a]": (paper_tables.age_hierarchy(10, 5), age_sample),
        "paper:age[T3b]": (paper_tables.age_hierarchy(20, 15), age_sample),
        "paper:age[T4]": (paper_tables.age_hierarchy(20, 0), age_sample),
    }
    for label, (hierarchy, sample) in paper_checks.items():
        findings.extend(check_hierarchy(hierarchy, sample=sample, label=label))
    for scheme_name, release in paper_tables.all_generalizations().items():
        findings.extend(
            check_property_vectors(
                [equivalence_class_size(release)],
                rows=len(release),
                label=f"paper:{scheme_name}:vectors",
            )
        )

    # Adult workload: hierarchies, lattice, privacy parameters.
    adult = adult_dataset(64, seed=0)
    hierarchies = adult_hierarchies()
    adult_samples = {name: adult.column(name) for name in adult.schema.names}
    findings.extend(check_hierarchies(hierarchies, samples=adult_samples))
    qi_names = adult.schema.quasi_identifier_names
    findings.extend(
        check_lattice(
            Lattice([hierarchies[name] for name in qi_names]),
            label="adult:lattice",
        )
    )
    sensitive = adult.column(adult.schema.sensitive_names[0])
    findings.extend(
        check_privacy_parameters(
            [
                KAnonymity(5),
                DistinctLDiversity(2),
                TCloseness(0.3),
                PSensitiveKAnonymity(2, 5),
            ],
            rows=len(adult),
            sensitive_values=sensitive,
        )
    )

    # Quality-index and profile contracts.
    registry = {
        "minimum": index_module.MinimumIndex(),
        "mean": index_module.MeanIndex(),
        "maximum": index_module.MaximumIndex(),
        "gini": index_module.GiniIndex(),
    }
    findings.extend(check_index_registry(registry))
    profile = privacy_profile(adult.schema.sensitive_names[0])
    declared = {
        "equivalence-class-size",
        "sensitive-value-count",
        "tuple-utility",
        "breach-probability",
    }
    findings.extend(
        check_profile(profile, declared_properties=declared, label="profile:privacy")
    )
    findings.extend(
        check_profile(
            privacy_utility_profile(hierarchies),
            declared_properties=declared,
            label="profile:privacy-utility",
        )
    )
    return findings


def clear_validation_cache() -> None:
    """Drop the memoized hierarchy validations (for tests)."""
    _validated_hierarchies.clear()


def select_artifact_errors(diagnostics: Iterable[Diagnostic]) -> list[Diagnostic]:
    """Only the ERROR-severity findings (convenience filter for gates)."""
    return [d for d in diagnostics if d.severity is Severity.ERROR]


def summarize_rules() -> dict[str, dict[str, Any]]:
    """Metadata for every registered codebase rule (id, title, severity)."""
    return {
        rule_id: {
            "title": rule_class.title,
            "severity": rule_class.severity.value,
            "hint": rule_class.hint,
        }
        for rule_id, rule_class in registered_rules().items()
    }
