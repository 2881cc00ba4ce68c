"""Experiment E9 — composition: two safe releases, one broken promise.

Each of the paper's T3b and T4 is a >= 3-anonymous release of Table 1, yet
an adversary holding both can intersect their equivalence classes and
isolate an individual completely (effective k = 1).  At workload scale the
same happens with two algorithms at the same k.  Composition risk is one
more per-tuple property vector — and one more place where the scalar story
("both releases are k-anonymous") misleads.
"""

import pytest

from repro import Datafly, Mondrian
from repro.attack import composition_k, composition_risks, prosecutor_risks
from repro.datasets import paper_tables
from conftest import emit

PAPER_H = {paper_tables.SENSITIVE_ATTRIBUTE: paper_tables.marital_hierarchy()}


def test_bench_composition_paper_tables(benchmark, generalizations):
    t3b, t4 = generalizations["T3b"], generalizations["T4"]

    def attack():
        return (
            composition_k([t3b, t4], PAPER_H),
            composition_risks([t3b, t4], hierarchies=PAPER_H),
        )

    effective_k, risks = benchmark(attack)
    assert t3b.k() == 3 and t4.k() == 4
    assert effective_k == 1
    isolated = [i + 1 for i in range(len(risks)) if risks[i] == 1.0]
    emit("E9: composition of T3b and T4", [
        f"individual k: T3b = {t3b.k()}, T4 = {t4.k()}",
        f"effective k against both releases: {effective_k}",
        f"fully isolated tuples: {isolated}",
        "per-tuple joint risks: "
        + ", ".join(f"{risk:.2f}" for risk in risks),
    ])


def test_bench_composition_workload(benchmark, adult_1k, adult_h):
    data = adult_1k.head(300)
    datafly = Datafly(5).anonymize(data, adult_h)
    mondrian = Mondrian(5).anonymize(data, adult_h)

    def attack():
        joint = composition_risks([datafly, mondrian], hierarchies=adult_h)
        single_d = prosecutor_risks(datafly, hierarchies=adult_h)
        single_m = prosecutor_risks(mondrian, hierarchies=adult_h)
        return joint, single_d, single_m

    joint, single_d, single_m = benchmark.pedantic(
        attack, rounds=1, iterations=1
    )
    worst_single = max(single_d.max(), single_m.max())
    emit("E9: composition of Datafly and Mondrian (N=300, k=5 each)", [
        f"max single-release risk: {worst_single:.3f}",
        f"max joint risk:          {joint.max():.3f}",
        f"mean joint risk:         {joint.mean():.3f} "
        f"(vs {single_d.mean():.3f} / "
        f"{single_m.mean():.3f} single)",
    ])
    # Joint risk dominates both single-release risks.
    assert joint.max() >= worst_single - 1e-12
    assert joint.mean() >= max(single_d.mean(), single_m.mean()) - 1e-12
