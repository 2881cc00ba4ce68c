"""Structured lint diagnostics.

Both analysis layers — the artifact checkers of :mod:`repro.lint.artifacts`
and the AST rules of :mod:`repro.lint.rules` — speak one record type: a
:class:`Diagnostic` carries the rule id, a severity, an optional source
location and a fix hint, so reporters, the CLI exit-code policy and the
engine gate (:func:`repro.lint.api.ensure_valid_hierarchies`) never care
which layer produced a finding.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence


class LintError(ValueError):
    """Raised when an artifact fails lint validation at a hard gate.

    Carries the offending diagnostics so callers can render or filter them.
    """

    def __init__(self, message: str, diagnostics: Sequence["Diagnostic"] = ()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


class Severity(enum.Enum):
    """How bad a finding is; drives exit codes and strict mode."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Total order for sorting: errors first, infos last."""
        return {"error": 0, "warning": 1, "info": 2}[self.value]


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding.

    Parameters
    ----------
    rule:
        Stable rule id (``REP001`` .. ``REP005`` for codebase rules,
        ``ART001``, ``ART002`` and ``ART009`` .. ``ART012`` for artifact
        checkers).
    message:
        Human-readable statement of the defect.
    severity:
        :class:`Severity` of the finding.
    path:
        Source file (codebase rules) or artifact label (artifact checkers).
    line:
        1-based source line, 0 when not applicable.
    column:
        1-based source column, 0 when not applicable.
    hint:
        A short suggestion for fixing the finding.
    """

    rule: str
    message: str
    severity: Severity = Severity.ERROR
    path: str = ""
    line: int = 0
    column: int = 0
    hint: str = ""

    def format(self) -> str:
        """The canonical one-line rendering: ``path:line:col: ID message``."""
        location = self.path or "<artifact>"
        if self.line:
            location += f":{self.line}:{self.column or 1}"
        text = f"{location}: {self.rule} [{self.severity.value}] {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping of the record."""
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "hint": self.hint,
        }


@dataclass
class DiagnosticCollector:
    """Accumulates diagnostics for one checker run.

    Checkers call :meth:`add` (or the severity shorthands); the collector
    keeps insertion order, which reporters then sort for display.
    """

    findings: list[Diagnostic] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> None:
        """Record one finding."""
        self.findings.append(diagnostic)

    def error(self, rule: str, message: str, **location: Any) -> None:
        """Record an :data:`Severity.ERROR` finding."""
        self.add(Diagnostic(rule, message, Severity.ERROR, **location))

    def warning(self, rule: str, message: str, **location: Any) -> None:
        """Record a :data:`Severity.WARNING` finding."""
        self.add(Diagnostic(rule, message, Severity.WARNING, **location))

    def info(self, rule: str, message: str, **location: Any) -> None:
        """Record a :data:`Severity.INFO` finding."""
        self.add(Diagnostic(rule, message, Severity.INFO, **location))

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        """Record several findings."""
        self.findings.extend(diagnostics)

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self):
        return iter(self.findings)


def sort_diagnostics(diagnostics: Iterable[Diagnostic]) -> list[Diagnostic]:
    """Deterministic display order: path, line, column, rule id."""
    return sorted(
        diagnostics,
        key=lambda d: (d.path, d.line, d.column, d.rule, d.message),
    )


def worst_severity(diagnostics: Iterable[Diagnostic]) -> Severity | None:
    """The most severe level present, or ``None`` for a clean run."""
    worst: Severity | None = None
    for diagnostic in diagnostics:
        if worst is None or diagnostic.severity.rank < worst.rank:
            worst = diagnostic.severity
    return worst


def has_blocking(
    diagnostics: Iterable[Diagnostic], strict: bool = False
) -> bool:
    """Whether the findings should fail the run.

    Errors always block; in ``strict`` mode warnings block too.  INFO
    findings never block.
    """
    blocking = {Severity.ERROR, Severity.WARNING} if strict else {Severity.ERROR}
    return any(d.severity in blocking for d in diagnostics)
