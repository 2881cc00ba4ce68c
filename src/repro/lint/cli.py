"""The ``repro lint`` subcommand implementation.

Kept separate from :mod:`repro.cli` so the top-level CLI only wires
arguments; all lint policy (what runs, what blocks, how findings render)
lives with the lint subsystem.

Exit codes: 0 — clean (or INFO-only); 1 — errors, or warnings under
``--strict``; 2 — bad invocation (unknown rule id, nonexistent path, or —
under ``--strict`` — a malformed suppression comment, which means some
disable comment is not doing what its author thinks).
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Sequence

from . import api
from .diagnostics import Diagnostic, has_blocking
from .engine import expand_selection
from .report import FORMATS, render


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro lint`` arguments to a subcommand parser."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as failures",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        nargs="+",
        metavar="RULE",
        help="run only these rule ids (e.g. REP001 REP003)",
    )
    parser.add_argument(
        "--no-code",
        action="store_true",
        help="skip the codebase rules (runtime artifact checks only)",
    )
    parser.add_argument(
        "--runtime",
        nargs="+",
        metavar="PATH",
        help="validate runtime artifacts at PATH: a study run directory "
        "(manifest.json + events.jsonl, ART009; trace.json/metrics.json, "
        "ART011), a content-addressed cache store (objects/, ART010), an "
        "exported trace/metrics JSON file (ART011), or a BENCH_*.json "
        "benchmark trajectory (ART012; any other schema is an ART012 "
        "error)",
    )


def _partition_selectors(
    select: Sequence[str] | None,
) -> tuple[list[str] | None, list[str]]:
    """Partition ``--select`` into (code, artifact) rule ids.

    One code path for every rule family: the selectors are expanded over
    the union of the AST-rule registry and the artifact checkers with
    :func:`repro.lint.engine.expand_selection`, so ``REP0``, ``REP3``,
    ``ART`` and exact ids all get identical prefix semantics.  Raises
    ``ValueError`` on a selector matching nothing.
    """
    if select is None:
        return None, []
    registry = set(api.registered_rules())
    expanded = expand_selection(
        select, universe=registry | set(api.ARTIFACT_RULES)
    )
    code = [rule_id for rule_id in expanded if rule_id in registry]
    artifact = [rule_id for rule_id in expanded if rule_id in api.ARTIFACT_RULES]
    return (code or None), artifact


def run(args: argparse.Namespace) -> int:
    """Execute ``repro lint`` and return the process exit code."""
    findings: list[Diagnostic] = []
    try:
        code_select, artifact_select = _partition_selectors(args.select)
        # A --select naming only artifact rules asks for those checks, not
        # a full code sweep under "no filter".
        run_code = not args.no_code and not (args.select and code_select is None)
        if run_code:
            findings.extend(api.lint_paths(args.paths, select=code_select))
    except ValueError as exc:  # unknown rule id or nonexistent path
        print(exc)
        return 2
    for runtime_path in args.runtime or ():
        target = Path(runtime_path)
        if not target.exists():
            print(f"--runtime path does not exist: {runtime_path}")
            return 2
        if target.is_file():
            if target.name.startswith("BENCH_") and target.suffix == ".json":
                findings.extend(api.check_bench_artifacts(target))
            else:
                findings.extend(api.check_obs_artifacts(target))
            continue
        is_run = (target / "manifest.json").exists() or (
            target / "events.jsonl"
        ).exists()
        is_store = (target / "objects").exists()
        if not is_run and not is_store:
            print(
                f"--runtime path {runtime_path} is neither a run directory "
                "(no manifest.json/events.jsonl), a cache store (no objects/), "
                "nor a trace/metrics file"
            )
            return 2
        if is_run:
            findings.extend(api.check_run_artifacts(target))
            for artifact_name in ("trace.json", "metrics.json"):
                artifact_path = target / artifact_name
                if artifact_path.exists():
                    findings.extend(api.check_obs_artifacts(artifact_path))
        if is_store:
            findings.extend(api.check_cache_store(target))

    if artifact_select:
        # Code findings were already narrowed by their pass; filter the
        # artifact findings too so --select governs the report.  Expanded
        # ids are exact, so plain membership suffices.
        selected = set(artifact_select) | set(code_select or ())
        findings = [finding for finding in findings if finding.rule in selected]

    print(render(findings, format=args.format))
    if args.strict and any(f.rule == "REP006" for f in findings):
        # A malformed suppression means some disable comment is silently
        # suppressing nothing: that is an invocation-level error.
        return 2
    return 1 if has_blocking(findings, strict=args.strict) else 0
