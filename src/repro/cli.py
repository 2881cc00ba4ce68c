"""Command-line interface.

Subcommands mirror the workflow of the examples:

* ``repro generate`` — write a synthetic Adult workload to CSV;
* ``repro anonymize`` — anonymize a generated workload with one algorithm;
* ``repro compare`` — run several algorithms and print the full
  vector-based comparison report;
* ``repro audit`` — bias-audit one algorithm's release;
* ``repro paper`` — regenerate the paper's running example tables;
* ``repro study`` — run an algorithm × k grid through the parallel,
  content-addressed study runtime (:mod:`repro.runtime`);
* ``repro serve`` — long-lived anonymization service over HTTP
  (:mod:`repro.serve`);
* ``repro bench`` — concurrent workload benchmarks (``bench serve``);
* ``repro obs`` — summarize a run's trace/metrics artifacts
  (:mod:`repro.obs`);
* ``repro lint`` — static analysis (codebase rules + artifact checks).

Invoke as ``python -m repro.cli <command> ...`` (or the module's
:func:`main` programmatically).  Only the synthetic Adult workload is
wired up here — the CSV path keeps runs reproducible and self-contained.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import __version__
from .analysis import bias_summary, comparison_report
from .anonymize.algorithms import (
    Anonymizer,
    Datafly,
    Mondrian,
    MuArgus,
    OptimalLattice,
    Samarati,
)
from .core.properties import breach_probability, equivalence_class_size
from .core.rproperty import privacy_profile
from .datasets import adult_dataset, adult_hierarchies, write_csv
from .datasets import paper_tables
from .lint import cli as lint_cli
from .obs import cli as obs_cli
from .runtime import cli as runtime_cli
from .serve import cli as serve_cli
from .utility import discernibility, general_loss

ALGORITHMS = {
    "datafly": Datafly,
    "samarati": Samarati,
    "mondrian": Mondrian,
    "optimal": OptimalLattice,
    "muargus": MuArgus,
}


def _build_algorithm(name: str, k: int) -> Anonymizer:
    try:
        factory = ALGORITHMS[name]
    except KeyError:
        raise SystemExit(
            f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}"
        ) from None
    return factory(k)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Vector-based comparison of disclosure control algorithms "
        "(Dewri et al., EDBT 2009).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="write a synthetic Adult workload to CSV"
    )
    generate.add_argument("output", help="destination CSV path")
    generate.add_argument("--rows", type=int, default=1000)
    generate.add_argument("--seed", type=int, default=42)

    anonymize = commands.add_parser(
        "anonymize", help="anonymize a synthetic workload and write the release"
    )
    anonymize.add_argument("output", help="destination CSV path")
    anonymize.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="mondrian"
    )
    anonymize.add_argument("--k", type=int, default=5)
    anonymize.add_argument("--rows", type=int, default=1000)
    anonymize.add_argument("--seed", type=int, default=42)

    compare = commands.add_parser(
        "compare", help="compare algorithms with the vector framework"
    )
    compare.add_argument(
        "--algorithms",
        nargs="+",
        choices=sorted(ALGORITHMS),
        default=["datafly", "mondrian"],
    )
    compare.add_argument("--k", type=int, default=5)
    compare.add_argument("--rows", type=int, default=500)
    compare.add_argument("--seed", type=int, default=42)
    compare.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="anonymize algorithms in parallel worker processes via the "
        "study runtime (1 = serial in-process, the default)",
    )

    audit = commands.add_parser("audit", help="bias-audit one release")
    audit.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="datafly"
    )
    audit.add_argument("--k", type=int, default=10)
    audit.add_argument("--rows", type=int, default=500)
    audit.add_argument("--seed", type=int, default=42)

    commands.add_parser(
        "paper", help="regenerate the paper's Tables 1-3 running example"
    )

    study = commands.add_parser(
        "study",
        help="run an algorithm x k grid on the parallel, memoized runtime",
    )
    runtime_cli.configure_parser(study)

    sweep = commands.add_parser(
        "sweep", help="k-sweep one algorithm (privacy / bias / utility)"
    )
    sweep.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="mondrian"
    )
    sweep.add_argument("--ks", type=int, nargs="+", default=[2, 5, 10, 25])
    sweep.add_argument("--rows", type=int, default=500)
    sweep.add_argument("--seed", type=int, default=42)

    attack = commands.add_parser(
        "attack", help="linkage-attack one algorithm's release"
    )
    attack.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="mondrian"
    )
    attack.add_argument("--k", type=int, default=5)
    attack.add_argument("--rows", type=int, default=300)
    attack.add_argument("--seed", type=int, default=42)
    attack.add_argument("--trials", type=int, default=1000)

    serve = commands.add_parser(
        "serve",
        help="start the resident anonymization service (HTTP)",
    )
    serve_cli.configure_serve_parser(serve)

    bench = commands.add_parser(
        "bench",
        help="concurrent workload benchmarks (suite: serve)",
    )
    serve_cli.configure_bench_parser(bench)

    obs = commands.add_parser(
        "obs",
        help="summarize a run directory's trace/metrics artifacts",
    )
    obs_cli.configure_parser(obs)

    lint = commands.add_parser(
        "lint",
        help="static analysis: REP00x codebase rules and artifact checks",
    )
    lint_cli.configure_parser(lint)
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    data = adult_dataset(args.rows, seed=args.seed)
    write_csv(data, args.output)
    print(f"wrote {len(data)} rows to {args.output}")
    return 0


def _cmd_anonymize(args: argparse.Namespace) -> int:
    data = adult_dataset(args.rows, seed=args.seed)
    hierarchies = adult_hierarchies()
    release = _build_algorithm(args.algorithm, args.k).anonymize(data, hierarchies)
    write_csv(release.released, args.output)
    print(
        f"{release.name}: k={release.k()} suppressed={len(release.suppressed)} "
        f"LM={general_loss(release, hierarchies):.3f} "
        f"DM={discernibility(release)}"
    )
    print(f"wrote release to {args.output}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    data = adult_dataset(args.rows, seed=args.seed)
    hierarchies = adult_hierarchies()
    if getattr(args, "jobs", 1) > 1:
        from .runtime.study import AlgorithmSpec, DatasetSpec, run_release_grid

        releases = run_release_grid(
            [AlgorithmSpec.of(name, k=args.k) for name in args.algorithms],
            DatasetSpec.of("adult", rows=args.rows, seed=args.seed),
            jobs=args.jobs,
            seed=args.seed,
        )
    else:
        releases = [
            _build_algorithm(name, args.k).anonymize(data, hierarchies)
            for name in args.algorithms
        ]
    profile = privacy_profile("occupation")
    print(comparison_report(releases, profile))
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    data = adult_dataset(args.rows, seed=args.seed)
    hierarchies = adult_hierarchies()
    release = _build_algorithm(args.algorithm, args.k).anonymize(data, hierarchies)
    print(f"release: {release.name}, k={release.k()}, "
          f"suppressed={len(release.suppressed)}")
    print(bias_summary(equivalence_class_size(release)).describe())
    print(bias_summary(breach_probability(release)).describe())
    return 0


def _cmd_paper(args: argparse.Namespace) -> int:
    print("Table 1:")
    print(paper_tables.table1().to_text())
    for name, release in paper_tables.all_generalizations().items():
        print(f"\n{name} (k={release.k()}):")
        print(release.released.to_text())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis import format_sweep, k_sweep

    data = adult_dataset(args.rows, seed=args.seed)
    hierarchies = adult_hierarchies()
    rows = k_sweep(
        lambda k: _build_algorithm(args.algorithm, k),
        data,
        hierarchies,
        ks=args.ks,
    )
    print(f"{args.algorithm} on {args.rows} synthetic Adult rows:")
    print(format_sweep(rows))
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from .attack import linkage_report, simulate_linkage

    data = adult_dataset(args.rows, seed=args.seed)
    hierarchies = adult_hierarchies()
    release = _build_algorithm(args.algorithm, args.k).anonymize(data, hierarchies)
    report = linkage_report(release, hierarchies=hierarchies)
    empirical = simulate_linkage(
        release, trials=args.trials, seed=args.seed, hierarchies=hierarchies
    )
    print(f"release: {release.name} (k={release.k()})")
    print(report.describe())
    print(f"Monte Carlo re-identification rate ({args.trials} trials): "
          f"{empirical:.4f}")
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "anonymize": _cmd_anonymize,
    "compare": _cmd_compare,
    "audit": _cmd_audit,
    "paper": _cmd_paper,
    "study": runtime_cli.run,
    "sweep": _cmd_sweep,
    "attack": _cmd_attack,
    "serve": serve_cli.run_serve,
    "bench": serve_cli.run_bench,
    "obs": obs_cli.run,
    "lint": lint_cli.run,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
