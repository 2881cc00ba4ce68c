"""Layer 2 — the AST rule engine.

A self-contained visitor framework plus rule registry in the style of
``flake8`` plugins: each rule is a class with a stable id, a severity, a
fix hint and a ``check(context)`` generator; the engine parses each file
once and hands every registered (and path-applicable) rule the shared
:class:`LintContext`.  Rules are registered with the :func:`register`
decorator; :func:`lint_paths` walks directories, parses and dispatches.
"""

from __future__ import annotations

import abc
import ast
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .diagnostics import Diagnostic, Severity


@dataclass(frozen=True)
class LintContext:
    """Everything a rule may inspect about one source file."""

    path: str
    tree: ast.Module
    source: str

    @property
    def parts(self) -> tuple[str, ...]:
        """Path components, for scope filters (always POSIX-style)."""
        return Path(self.path).as_posix().split("/")


class Rule(abc.ABC):
    """One codebase lint rule.

    Subclasses declare the class attributes and implement :meth:`check`;
    :meth:`diagnostic` builds a correctly-located record for a node.
    """

    #: Stable rule identifier, e.g. ``"REP001"``.
    id: str = "REP000"
    #: One-line description shown in ``--help`` and the docs.
    title: str = ""
    #: Default severity of this rule's findings.
    severity: Severity = Severity.ERROR
    #: Short fix suggestion attached to every finding.
    hint: str = ""
    #: Path components that must be present for the rule to run (any match).
    require_parts: tuple[str, ...] = ()
    #: Path suffixes exempt from the rule.
    exempt_suffixes: tuple[str, ...] = ()

    def applies_to(self, context: LintContext) -> bool:
        """Whether the rule runs on this file (path scoping)."""
        posix = Path(context.path).as_posix()
        if any(posix.endswith(suffix) for suffix in self.exempt_suffixes):
            return False
        if self.require_parts:
            return any(part in context.parts for part in self.require_parts)
        return True

    @abc.abstractmethod
    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        """Yield findings for one parsed file."""

    def diagnostic(
        self,
        context: LintContext,
        node: ast.AST,
        message: str,
        severity: Severity | None = None,
    ) -> Diagnostic:
        """A finding anchored at ``node``'s source location."""
        return Diagnostic(
            rule=self.id,
            message=message,
            severity=severity or self.severity,
            path=context.path,
            line=getattr(node, "lineno", 0),
            column=getattr(node, "col_offset", -1) + 1,
            hint=self.hint,
        )


class RuleVisitor(ast.NodeVisitor):
    """Base visitor for rules that prefer dispatch over manual walks.

    Collects findings in :attr:`findings`; :meth:`run` visits the tree and
    returns them.  Subclasses implement ``visit_*`` methods and call
    :meth:`report`.
    """

    def __init__(self, rule: Rule, context: LintContext):
        self.rule = rule
        self.context = context
        self.findings: list[Diagnostic] = []

    def report(
        self, node: ast.AST, message: str, severity: Severity | None = None
    ) -> None:
        """Record one finding at ``node``."""
        self.findings.append(
            self.rule.diagnostic(self.context, node, message, severity)
        )

    def run(self, tree: ast.Module) -> list[Diagnostic]:
        """Visit the whole module and return the collected findings."""
        self.visit(tree)
        return self.findings


_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if rule_class.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.id!r}")
    _REGISTRY[rule_class.id] = rule_class
    return rule_class


def registered_rules() -> dict[str, type[Rule]]:
    """The rule registry, keyed by rule id (a copy; mutation-safe)."""
    return dict(sorted(_REGISTRY.items()))


def expand_selection(
    select: Sequence[str], universe: Iterable[str] | None = None
) -> list[str]:
    """Expand rule-id selectors (exact ids or prefixes) to known ids.

    ``REP3`` selects the whole ``REP3xx`` family; ``REP302`` selects just
    that rule.  One code path serves every rule family: ``universe``
    defaults to the AST-rule registry, but callers owning a larger id
    space (the CLI unions in the ``ART*`` artifact checkers) pass it
    explicitly and get identical prefix semantics.  A selector matching
    nothing raises ``ValueError`` — a typo'd family in CI must fail loudly,
    not lint nothing.
    """
    known = sorted(registered_rules() if universe is None else universe)
    expanded: list[str] = []
    unknown: list[str] = []
    for selector in select:
        matches = [
            rule_id
            for rule_id in known
            if rule_id == selector or rule_id.startswith(selector)
        ]
        if not matches:
            unknown.append(selector)
        for rule_id in matches:
            if rule_id not in expanded:
                expanded.append(rule_id)
    if unknown:
        raise ValueError(f"unknown rule id(s) {unknown}; registered: {known}")
    return expanded


def _instantiate(select: Sequence[str] | None) -> list[Rule]:
    registry = registered_rules()
    if select is None:
        return [rule_class() for rule_class in registry.values()]
    return [registry[rule_id]() for rule_id in expand_selection(select)]


#: Inline suppression comment: ``# lint: disable=REP003`` (comma-separated
#: ids allowed).  Scoped to the physical line the comment sits on — for a
#: multi-line call, that is the line where the call expression starts.
_SUPPRESSION_PATTERN = re.compile(
    r"#\s*lint:\s*disable=([A-Za-z0-9_,\s]+)"
)

#: Engine-level diagnostic ids that are not registry rules (parse failures
#: and malformed suppressions); valid in ``--select``-less runs and known
#: to the suppression validator.
_ENGINE_IDS = frozenset({"REP000", "REP006"})


def parse_suppressions(source: str) -> tuple[dict[int, set[str]], list[Diagnostic]]:
    """Per-line suppressed rule ids, plus diagnostics for unknown ids.

    Returns ``({line: {rule ids}}, [REP006 findings])``.  An unknown rule
    id in a disable comment is itself a finding — a typo'd suppression
    that silently suppresses nothing (or the wrong thing) must surface.
    """
    known = set(registered_rules()) | _ENGINE_IDS
    suppressions: dict[int, set[str]] = {}
    malformed: list[tuple[int, str]] = []
    for line_number, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESSION_PATTERN.search(line)
        if match is None:
            continue
        for token in match.group(1).split(","):
            rule_id = token.strip()
            if not rule_id:
                continue
            if rule_id in known:
                suppressions.setdefault(line_number, set()).add(rule_id)
            else:
                malformed.append((line_number, rule_id))
    findings = [
        Diagnostic(
            rule="REP006",
            message=(
                f"unknown rule id {rule_id!r} in suppression comment; "
                f"registered ids: {sorted(known)}"
            ),
            severity=Severity.WARNING,
            path="",
            line=line_number,
            column=0,
            hint="fix the rule id or drop the disable comment",
        )
        for line_number, rule_id in malformed
    ]
    return suppressions, findings


def apply_suppressions(
    findings: Iterable[Diagnostic], suppressions: Mapping[int, set[str]]
) -> list[Diagnostic]:
    """Drop findings whose line carries a matching disable comment.

    Engine diagnostics (``REP000`` syntax errors, ``REP006`` malformed
    suppressions) are never suppressible — a disable comment cannot vouch
    for a file the engine could not even read correctly.
    """
    return [
        finding
        for finding in findings
        if finding.rule in _ENGINE_IDS
        or finding.rule not in suppressions.get(finding.line, set())
    ]


def lint_source(
    source: str,
    path: str = "<string>",
    select: Sequence[str] | None = None,
) -> list[Diagnostic]:
    """Run the (selected) registered rules over one source string.

    Syntax errors are reported as a ``REP000`` error diagnostic rather than
    raised, so one unparsable file cannot abort a whole-tree run.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Diagnostic(
                rule="REP000",
                message=f"syntax error: {exc.msg}",
                severity=Severity.ERROR,
                path=path,
                line=exc.lineno or 0,
                column=exc.offset or 0,
            )
        ]
    context = LintContext(path=path, tree=tree, source=source)
    findings: list[Diagnostic] = []
    for rule in _instantiate(select):
        if rule.applies_to(context):
            findings.extend(rule.check(context))
    suppressions, bad_suppressions = parse_suppressions(source)
    findings = apply_suppressions(findings, suppressions)
    for finding in bad_suppressions:
        findings.append(replace(finding, path=path))
    return findings


def lint_file(
    path: str | Path, select: Sequence[str] | None = None
) -> list[Diagnostic]:
    """Run the rules over one file on disk."""
    file_path = Path(path)
    source = file_path.read_text(encoding="utf-8")
    return lint_source(source, path=str(file_path), select=select)


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """All ``.py`` files under the given files/directories, sorted.

    Hidden directories and ``__pycache__`` are skipped.  A path that does
    not exist raises ``ValueError`` — silently linting nothing would let a
    typo'd CI invocation pass.
    """
    seen: set[Path] = set()
    for entry in paths:
        root = Path(entry)
        if not root.exists():
            raise ValueError(f"lint path does not exist: {root}")
        if root.is_file():
            candidates: Iterable[Path] = [root] if root.suffix == ".py" else []
        else:
            candidates = sorted(root.rglob("*.py"))
        for candidate in candidates:
            parts = candidate.parts
            if any(part.startswith(".") or part == "__pycache__" for part in parts[:-1]):
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def lint_paths(
    paths: Iterable[str | Path], select: Sequence[str] | None = None
) -> list[Diagnostic]:
    """Run the rules over every Python file under ``paths``."""
    _instantiate(select)  # validate the selection even when no files match
    findings: list[Diagnostic] = []
    for file_path in iter_python_files(paths):
        findings.extend(lint_file(file_path, select=select))
    return findings
