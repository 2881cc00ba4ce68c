"""Reporters: render diagnostics as text, JSON or SARIF.

The text form is the grep-friendly ``path:line:col: RULE message`` layout
every editor understands; the JSON form is a stable machine-readable
document (``{"diagnostics": [...], "summary": {...}}``) for CI annotation
tooling; the SARIF form is a SARIF 2.1.0 log that code-scanning UIs
(e.g. GitHub's security tab) ingest directly.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from .diagnostics import Diagnostic, Severity, sort_diagnostics

FORMATS = ("text", "json", "sarif")


def summarize(diagnostics: Iterable[Diagnostic]) -> dict[str, int]:
    """Finding counts keyed by severity value (always all three keys)."""
    counts = {severity.value: 0 for severity in Severity}
    for diagnostic in diagnostics:
        counts[diagnostic.severity.value] += 1
    return counts


def render_text(diagnostics: Iterable[Diagnostic]) -> str:
    """One line per finding plus a trailing summary line."""
    ordered = sort_diagnostics(diagnostics)
    lines = [diagnostic.format() for diagnostic in ordered]
    counts = summarize(ordered)
    lines.append(
        f"{len(ordered)} finding(s): {counts['error']} error(s), "
        f"{counts['warning']} warning(s), {counts['info']} info"
    )
    return "\n".join(lines)


def render_json(diagnostics: Iterable[Diagnostic]) -> str:
    """A JSON document with the findings and a severity summary."""
    ordered = sort_diagnostics(diagnostics)
    return json.dumps(
        {
            "diagnostics": [diagnostic.to_dict() for diagnostic in ordered],
            "summary": summarize(ordered),
        },
        indent=2,
        sort_keys=True,
    )


#: SARIF "level" per diagnostic severity (SARIF has no "info" level).
_SARIF_LEVELS = {"error": "error", "warning": "warning", "info": "note"}


def _rule_metadata() -> dict[str, dict[str, str]]:
    """``{rule id: {title, hint}}`` across every layer's rule table.

    Imported late so the reporter does not force the artifact checkers at
    import time.
    """
    from .artifacts import ARTIFACT_RULES
    from .engine import registered_rules

    table: dict[str, dict[str, str]] = {
        "REP000": {"title": "file does not parse", "hint": ""},
        "REP006": {"title": "unknown rule id in suppression comment", "hint": ""},
    }
    for rule_id, rule_class in registered_rules().items():
        table[rule_id] = {"title": rule_class.title, "hint": rule_class.hint}
    for rule_id, title in ARTIFACT_RULES.items():
        table[rule_id] = {"title": title, "hint": ""}
    return table


def render_sarif(diagnostics: Iterable[Diagnostic]) -> str:
    """A SARIF 2.1.0 log of the findings.

    Deterministic: findings in canonical order, the rules array limited
    to (and sorted by) the ids that actually fired.  Paths are emitted
    as-is relative URIs; artifact findings without a file location get a
    message-only result.
    """
    ordered = sort_diagnostics(diagnostics)
    metadata = _rule_metadata()
    fired = sorted({diagnostic.rule for diagnostic in ordered})
    rule_index = {rule_id: position for position, rule_id in enumerate(fired)}
    rules = []
    for rule_id in fired:
        meta = metadata.get(rule_id, {"title": "", "hint": ""})
        descriptor: dict[str, Any] = {"id": rule_id}
        if meta["title"]:
            descriptor["shortDescription"] = {"text": meta["title"]}
        if meta["hint"]:
            descriptor["help"] = {"text": meta["hint"]}
        rules.append(descriptor)
    results = []
    for diagnostic in ordered:
        message = diagnostic.message
        if diagnostic.hint:
            message += f" (hint: {diagnostic.hint})"
        result: dict[str, Any] = {
            "ruleId": diagnostic.rule,
            "ruleIndex": rule_index[diagnostic.rule],
            "level": _SARIF_LEVELS[diagnostic.severity.value],
            "message": {"text": message},
        }
        if diagnostic.path:
            location: dict[str, Any] = {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": diagnostic.path.replace("\\", "/")
                    }
                }
            }
            if diagnostic.line:
                location["physicalLocation"]["region"] = {
                    "startLine": diagnostic.line,
                    "startColumn": diagnostic.column or 1,
                }
            result["locations"] = [location]
        results.append(result)
    document = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)


def render(diagnostics: Iterable[Diagnostic], format: str = "text") -> str:
    """Render findings in the requested ``format`` (one of :data:`FORMATS`)."""
    if format == "text":
        return render_text(diagnostics)
    if format == "json":
        return render_json(diagnostics)
    if format == "sarif":
        return render_sarif(diagnostics)
    raise ValueError(f"unknown report format {format!r}; choose from {FORMATS}")
