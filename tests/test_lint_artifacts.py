"""Tests for Layer 1 of repro.lint: artifact analysis (ART001-ART008, ART012)."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.anonymize.engine import recode
from repro.core.indices import MinimumIndex
from repro.core.rproperty import privacy_profile
from repro.core.vector import PropertyVector
from repro.datasets import paper_tables
from repro.hierarchy.base import SUPPRESSED, Hierarchy
from repro.hierarchy.categorical import TaxonomyHierarchy
from repro.hierarchy.lattice import Lattice
from repro.lint import api
from repro.lint.artifacts import (
    BENCH_SCHEMA,
    check_bench_artifacts,
    check_hierarchies,
    check_hierarchy,
    check_index_registry,
    check_lattice,
    check_privacy_parameters,
    check_profile,
    check_property_vectors,
    check_unary_index,
    domain_sample,
)
from repro.lint.diagnostics import LintError, Severity
from repro.privacy import (
    DistinctLDiversity,
    KAnonymity,
    PSensitiveKAnonymity,
    RecursiveCLDiversity,
    TCloseness,
)


class StubHierarchy(Hierarchy):
    """Table-driven hierarchy: explicit chains (and losses) per value."""

    def __init__(self, name, chains, losses=None):
        super().__init__(name)
        self._chains = {value: tuple(chain) for value, chain in chains.items()}
        self._losses = losses

    @property
    def height(self):
        """Chain length minus the raw level."""
        return len(next(iter(self._chains.values()))) - 1

    @property
    def leaves(self):
        """Domain values, in declaration order."""
        return tuple(self._chains)

    def generalize(self, value, level):
        """Look the generalization up in the chain table."""
        self.check_level(level)
        return self._chains[value][level]

    def loss(self, value, level):
        """Explicit loss table, or the level fraction by default."""
        self.check_level(level)
        if self._losses is not None:
            return self._losses[value][level]
        return level / self.height


def clean_stub():
    return StubHierarchy(
        "city",
        {
            "a": ("a", "AB", SUPPRESSED),
            "b": ("b", "AB", SUPPRESSED),
            "c": ("c", "CD", SUPPRESSED),
            "d": ("d", "CD", SUPPRESSED),
        },
        losses={value: (0.0, 0.5, 1.0) for value in "abcd"},
    )


def rule_ids(findings):
    return sorted({d.rule for d in findings})


def errors_of(findings):
    return [d for d in findings if d.severity is Severity.ERROR]


def broken_marital_hierarchy():
    """A height-3 marital taxonomy whose level-1 token 'Married' splits at
    level 2 — the canonical monotonicity violation."""
    return TaxonomyHierarchy(
        paper_tables.SENSITIVE_ATTRIBUTE,
        {
            "CF-Spouse": ("Married", "WithSpouse"),
            "Spouse Present": ("Married", "Alone"),
            "Separated": ("Not Married", "Alone"),
            "Never Married": ("Not Married", "Alone"),
            "Divorced": ("Not Married", "Alone"),
            "Spouse Absent": ("Not Married", "Alone"),
        },
    )


class TestDomainSample:
    def test_explicit_sample_wins(self):
        assert domain_sample(clean_stub(), sample=["a"]) == ["a"]

    def test_leaves_used(self):
        assert domain_sample(clean_stub()) == ["a", "b", "c", "d"]

    def test_numeric_bounds_grid(self):
        sample = domain_sample(paper_tables.age_hierarchy(10, 5))
        assert sample[0] == 0.0 and sample[-1] == 120.0
        assert len(sample) == 17

    def test_no_domain_gives_empty(self):
        assert domain_sample(SimpleNamespace(height=2, name="opaque")) == []


class TestCheckHierarchy:
    def test_clean_hierarchy_has_no_findings(self):
        assert check_hierarchy(clean_stub()) == []

    def test_paper_hierarchies_are_clean(self):
        assert check_hierarchy(paper_tables.marital_hierarchy()) == []
        table = paper_tables.table1()
        assert (
            check_hierarchy(
                paper_tables.zip_hierarchy(), sample=table.column("Zip Code")
            )
            == []
        )

    def test_bad_height_is_art001(self):
        findings = check_hierarchy(SimpleNamespace(height=0, name="flat"))
        assert rule_ids(findings) == ["ART001"]
        assert errors_of(findings)

    def test_missing_domain_is_info_only(self):
        findings = check_hierarchy(SimpleNamespace(height=2, name="opaque"))
        assert [d.severity for d in findings] == [Severity.INFO]

    def test_incomplete_chain_is_art001(self):
        hierarchy = clean_stub()
        findings = check_hierarchy(hierarchy, sample=["a", "zzz"])
        assert rule_ids(errors_of(findings)) == ["ART001"]
        assert "zzz" in findings[0].message

    def test_non_identity_level0_is_art001(self):
        hierarchy = StubHierarchy(
            "h",
            {"a": ("A?", "X", SUPPRESSED), "b": ("b", "X", SUPPRESSED)},
            losses={"a": (0.0, 0.5, 1.0), "b": (0.0, 0.5, 1.0)},
        )
        findings = check_hierarchy(hierarchy)
        assert rule_ids(findings) == ["ART001"]
        assert "identity" in findings[0].message

    def test_missing_suppression_top_is_art001(self):
        hierarchy = StubHierarchy(
            "h",
            {"a": ("a", "X", "TOP"), "b": ("b", "X", "TOP")},
            losses={"a": (0.0, 0.5, 1.0), "b": (0.0, 0.5, 1.0)},
        )
        findings = check_hierarchy(hierarchy)
        assert rule_ids(findings) == ["ART001"]
        assert SUPPRESSED in findings[0].message

    def test_broken_monotonicity_is_art002(self):
        hierarchy = StubHierarchy(
            "h",
            {
                "a": ("a", "X", "P", SUPPRESSED),
                "b": ("b", "X", "Q", SUPPRESSED),
            },
            losses={v: (0.0, 1 / 3, 2 / 3, 1.0) for v in "ab"},
        )
        findings = check_hierarchy(hierarchy)
        assert rule_ids(findings) == ["ART002"]
        assert "monotonicity broken" in findings[0].message
        assert errors_of(findings)

    def test_redundant_level_is_art002_warning(self):
        hierarchy = StubHierarchy(
            "h",
            {"a": ("a", "a", SUPPRESSED), "b": ("b", "b", SUPPRESSED)},
            losses={v: (0.0, 0.0, 1.0) for v in "ab"},
        )
        findings = check_hierarchy(hierarchy)
        assert rule_ids(findings) == ["ART002"]
        assert all(d.severity is Severity.WARNING for d in findings)
        assert "coarsens nothing" in findings[0].message

    def test_broken_marital_taxonomy_reports_art002(self):
        findings = check_hierarchy(broken_marital_hierarchy())
        assert "ART002" in rule_ids(errors_of(findings))
        assert any("Married" in d.message for d in findings)

    def test_nonzero_raw_loss_is_art003(self):
        hierarchy = StubHierarchy(
            "h",
            {"a": ("a", "X", SUPPRESSED), "b": ("b", "X", SUPPRESSED)},
            losses={v: (0.2, 0.5, 1.0) for v in "ab"},
        )
        findings = check_hierarchy(hierarchy)
        assert rule_ids(findings) == ["ART003"]
        assert "cost 0" in findings[0].message

    def test_top_loss_below_one_is_art003(self):
        hierarchy = StubHierarchy(
            "h",
            {"a": ("a", "X", SUPPRESSED), "b": ("b", "X", SUPPRESSED)},
            losses={v: (0.0, 0.5, 0.9) for v in "ab"},
        )
        findings = check_hierarchy(hierarchy)
        assert rule_ids(findings) == ["ART003"]

    def test_out_of_range_loss_is_art003(self):
        hierarchy = StubHierarchy(
            "h",
            {"a": ("a", "X", SUPPRESSED), "b": ("b", "X", SUPPRESSED)},
            losses={v: (0.0, 1.5, 1.0) for v in "ab"},
        )
        findings = check_hierarchy(hierarchy)
        assert rule_ids(findings) == ["ART003"]
        assert any("[0, 1]" in d.message for d in findings)

    def test_decreasing_loss_is_art003(self):
        hierarchy = StubHierarchy(
            "h",
            {
                "a": ("a", "X", "Y", SUPPRESSED),
                "b": ("b", "X", "Y", SUPPRESSED),
            },
            losses={v: (0.0, 0.6, 0.3, 1.0) for v in "ab"},
        )
        findings = check_hierarchy(hierarchy)
        assert rule_ids(findings) == ["ART003"]
        assert any("decreases" in d.message for d in findings)


class TestCheckHierarchies:
    def test_matching_names_are_clean(self):
        assert check_hierarchies({"city": clean_stub()}) == []

    def test_key_name_mismatch_is_warned(self):
        findings = check_hierarchies({"town": clean_stub()})
        assert rule_ids(findings) == ["ART001"]
        assert all(d.severity is Severity.WARNING for d in findings)
        assert "does not match" in findings[0].message


class TestCheckLattice:
    def test_well_formed_lattice_is_clean(self):
        lattice = Lattice(
            [paper_tables.marital_hierarchy(), paper_tables.age_hierarchy(10, 5)]
        )
        assert check_lattice(lattice) == []

    def test_disagreeing_heights_are_art004(self):
        class WrongHeights(Lattice):
            """Lattice reporting every height one level too deep."""

            @property
            def heights(self):
                """Deliberately inconsistent heights."""
                return tuple(h + 1 for h in super().heights)

        findings = check_lattice(WrongHeights([clean_stub()]))
        assert rule_ids(findings) == ["ART004"]
        assert any("disagrees with DGH depth" in d.message for d in findings)

    def test_unreachable_nodes_are_art004(self):
        class DeadEnd(Lattice):
            """Lattice whose successor relation is empty."""

            def successors(self, node):
                """Yield nothing: only the bottom is reachable."""
                return iter(())

        findings = check_lattice(DeadEnd([clean_stub(), clean_stub()]))
        assert rule_ids(findings) == ["ART004"]
        assert any("reachable" in d.message for d in findings)

    def test_oversized_lattice_skips_reachability(self):
        chains = {
            i: (i,) + tuple(f"L{level}" for level in range(1, 36)) + (SUPPRESSED,)
            for i in range(2)
        }
        deep = StubHierarchy("deep", chains)
        findings = check_lattice(Lattice([deep, deep, deep]))
        assert [d.severity for d in findings] == [Severity.INFO]
        assert "skipped" in findings[0].message


class TestCheckPrivacyParameters:
    def test_stock_models_are_clean(self):
        findings = check_privacy_parameters(
            [
                KAnonymity(5),
                DistinctLDiversity(2),
                TCloseness(0.3),
                PSensitiveKAnonymity(2, 5),
                RecursiveCLDiversity(1.0, 2),
            ],
            rows=10,
            sensitive_values=["x", "y", "z", "x"],
        )
        assert findings == []

    def test_k_above_table_size_is_art005(self):
        findings = check_privacy_parameters(
            [SimpleNamespace(name="k", k=500)], rows=10
        )
        assert rule_ids(findings) == ["ART005"]
        assert "exceeds the table size" in findings[0].message

    def test_non_integer_k_is_art005(self):
        findings = check_privacy_parameters([SimpleNamespace(name="k", k=2.5)])
        assert rule_ids(errors_of(findings)) == ["ART005"]

    def test_l_above_distinct_is_art005(self):
        findings = check_privacy_parameters(
            [SimpleNamespace(name="l", l=9)],
            sensitive_values=["x", "y"],
        )
        assert rule_ids(findings) == ["ART005"]
        assert "distinct sensitive values" in findings[0].message

    def test_vacuous_l_is_warned(self):
        findings = check_privacy_parameters([SimpleNamespace(name="l", l=1)])
        assert [d.severity for d in findings] == [Severity.WARNING]
        assert "vacuous" in findings[0].message

    def test_t_out_of_unit_interval_is_art005(self):
        findings = check_privacy_parameters([SimpleNamespace(name="t", t=1.5)])
        assert rule_ids(findings) == ["ART005"]

    def test_p_above_k_is_art005(self):
        findings = check_privacy_parameters(
            [SimpleNamespace(name="p", p=7, k=3)], rows=100
        )
        assert rule_ids(findings) == ["ART005"]
        assert any("exceeds k" in d.message for d in findings)

    def test_nonpositive_c_is_art005(self):
        findings = check_privacy_parameters([SimpleNamespace(name="c", c=0.0)])
        assert rule_ids(findings) == ["ART005"]


class TestCheckIndices:
    def test_stock_index_is_clean(self):
        assert check_unary_index(MinimumIndex()) == []

    def test_contractless_object_is_art006(self):
        findings = check_unary_index(SimpleNamespace(name=""))
        assert rule_ids(findings) == ["ART006"]
        messages = " ".join(d.message for d in findings)
        assert "larger_is_better" in messages
        assert "value" in messages and "prefers" in messages

    def test_registry_key_mismatch_is_warned(self):
        findings = check_index_registry({"min": MinimumIndex()})
        assert rule_ids(findings) == ["ART006"]
        assert all(d.severity is Severity.WARNING for d in findings)

    def test_registry_under_own_name_is_clean(self):
        assert check_index_registry({"minimum": MinimumIndex()}) == []


class TestCheckProfile:
    DECLARED = {
        "equivalence-class-size",
        "sensitive-value-count",
        "tuple-utility",
        "breach-probability",
    }

    def test_stock_profile_is_clean(self):
        profile = privacy_profile("occupation")
        assert check_profile(profile, declared_properties=self.DECLARED) == []

    def test_empty_profile_is_art007(self):
        findings = check_profile(SimpleNamespace(names=(), r=0))
        assert rule_ids(findings) == ["ART007"]

    def test_duplicate_names_are_art007(self):
        findings = check_profile(SimpleNamespace(names=("a", "a"), r=2))
        assert rule_ids(findings) == ["ART007"]
        assert "not unique" in findings[0].message

    def test_r_mismatch_is_art007(self):
        findings = check_profile(SimpleNamespace(names=("a",), r=2))
        assert rule_ids(findings) == ["ART007"]

    def test_undeclared_property_is_art007(self):
        findings = check_profile(
            SimpleNamespace(names=("mystery",), r=1),
            declared_properties={"known"},
        )
        assert rule_ids(findings) == ["ART007"]
        assert "undeclared" in findings[0].message


class TestCheckPropertyVectors:
    def test_matching_length_is_clean(self):
        assert check_property_vectors([PropertyVector([1, 2, 3])], rows=3) == []

    def test_wrong_length_is_art008(self):
        findings = check_property_vectors([PropertyVector([1, 2, 3])], rows=4)
        assert rule_ids(findings) == ["ART008"]
        assert "3 measurements" in findings[0].message

    def test_mixed_orientation_is_warned(self):
        findings = check_property_vectors(
            [
                PropertyVector([1, 2], higher_is_better=True),
                PropertyVector([1, 2], higher_is_better=False),
            ],
            rows=2,
        )
        assert rule_ids(findings) == ["ART008"]
        assert all(d.severity is Severity.WARNING for d in findings)


class TestShippedArtifacts:
    def test_everything_the_package_ships_is_clean(self):
        assert api.check_shipped_artifacts() == []


class TestEngineGate:
    def test_recode_rejects_broken_monotonicity(self):
        api.clear_validation_cache()
        table = paper_tables.table1()
        hierarchies = {
            "Zip Code": paper_tables.zip_hierarchy(),
            "Age": paper_tables.age_hierarchy(10, 5),
            paper_tables.SENSITIVE_ATTRIBUTE: broken_marital_hierarchy(),
        }
        levels = {"Zip Code": 1, "Age": 1, paper_tables.SENSITIVE_ATTRIBUTE: 1}
        with pytest.raises(LintError) as excinfo:
            recode(table, hierarchies, levels)
        assert "refusing to recode" in str(excinfo.value)
        assert "ART002" in {d.rule for d in excinfo.value.diagnostics}

    def test_gate_diagnostics_exclude_advisory_rules(self):
        findings = api.gate_diagnostics(broken_marital_hierarchy())
        assert findings
        assert {d.rule for d in findings} <= {"ART001", "ART002"}
        assert all(d.severity is Severity.ERROR for d in findings)

    def test_valid_hierarchies_pass_and_are_memoized(self):
        api.clear_validation_cache()
        hierarchy = paper_tables.marital_hierarchy()
        api.ensure_valid_hierarchies({hierarchy.name: hierarchy})
        assert hierarchy in api._validated_hierarchies
        # Second call must be a cheap cache hit, not a re-validation.
        api.ensure_valid_hierarchies({hierarchy.name: hierarchy})

    def test_paper_schemes_recode_through_the_gate(self):
        release = paper_tables.t3a()
        assert len(release) == len(paper_tables.table1())


def _bench_payload(**overrides):
    """A minimal valid ``repro.bench/trajectory@1`` payload."""
    payload = {
        "schema": BENCH_SCHEMA,
        "suite": "recode",
        "entries": [
            {
                "git_rev": "abc1234",
                "quick": True,
                "cases": [
                    {
                        "n": 300,
                        "repeats": 3,
                        "p50_wall_s": 0.01,
                        "p95_wall_s": 0.02,
                        "plane_equivalent": True,
                    }
                ],
            }
        ],
    }
    payload.update(overrides)
    return payload


class TestCheckBenchArtifacts:
    def _write(self, tmp_path, payload):
        target = tmp_path / "BENCH_recode.json"
        target.write_text(json.dumps(payload), encoding="utf-8")
        return target

    def test_valid_trajectory_is_clean(self, tmp_path):
        assert check_bench_artifacts(self._write(tmp_path, _bench_payload())) == []

    def test_missing_file_is_an_error(self, tmp_path):
        findings = check_bench_artifacts(tmp_path / "BENCH_nope.json")
        assert rule_ids(findings) == ["ART012"]

    def test_wrong_schema_is_an_error(self, tmp_path):
        target = self._write(tmp_path, _bench_payload(schema="bogus@0"))
        findings = check_bench_artifacts(target)
        assert findings and "schema" in findings[0].message

    def test_empty_entries_is_an_error(self, tmp_path):
        target = self._write(tmp_path, _bench_payload(entries=[]))
        findings = check_bench_artifacts(target)
        assert findings and "entries" in findings[0].message

    def test_missing_git_rev_is_an_error(self, tmp_path):
        payload = _bench_payload()
        payload["entries"][0]["git_rev"] = ""
        findings = check_bench_artifacts(self._write(tmp_path, payload))
        assert any("git_rev" in f.message for f in findings)

    def test_percentile_inversion_is_an_error(self, tmp_path):
        payload = _bench_payload()
        payload["entries"][0]["cases"][0]["p50_wall_s"] = 0.5
        findings = check_bench_artifacts(self._write(tmp_path, payload))
        assert any("p50_wall_s" in f.message for f in findings)

    def test_boolean_masquerading_as_number_is_an_error(self, tmp_path):
        payload = _bench_payload()
        payload["entries"][0]["cases"][0]["n"] = True
        findings = check_bench_artifacts(self._write(tmp_path, payload))
        assert any("must be a number" in f.message for f in findings)

    def test_plane_divergence_is_an_error(self, tmp_path):
        payload = _bench_payload()
        payload["entries"][0]["cases"][0]["plane_equivalent"] = False
        findings = check_bench_artifacts(self._write(tmp_path, payload))
        assert any("plane_equivalent" in f.message for f in findings)
        assert all(f.severity is Severity.ERROR for f in findings)

    def test_float_n_is_an_error(self, tmp_path):
        payload = _bench_payload()
        payload["entries"][0]["cases"][0]["n"] = 300.0
        findings = check_bench_artifacts(self._write(tmp_path, payload))
        assert any("must be an integer" in f.message for f in findings)

    def test_float_repeats_is_an_error(self, tmp_path):
        payload = _bench_payload()
        payload["entries"][0]["cases"][0]["repeats"] = 3.5
        findings = check_bench_artifacts(self._write(tmp_path, payload))
        assert any("repeats must be an integer" in f.message for f in findings)

    def test_scale_tier_case_requires_kernel(self, tmp_path):
        payload = _bench_payload()
        payload["entries"][0]["cases"][0]["n"] = 1_000_000
        findings = check_bench_artifacts(self._write(tmp_path, payload))
        assert any("kernel backend" in f.message for f in findings)

    def test_scale_tier_case_with_kernel_is_clean(self, tmp_path):
        payload = _bench_payload()
        payload["entries"][0]["cases"][0]["n"] = 1_000_000
        payload["entries"][0]["cases"][0]["kernel"] = "numpy"
        assert check_bench_artifacts(self._write(tmp_path, payload)) == []

    def test_small_case_does_not_require_kernel(self, tmp_path):
        assert check_bench_artifacts(self._write(tmp_path, _bench_payload())) == []

    def test_committed_trajectory_is_clean(self):
        committed = Path(__file__).resolve().parent.parent / "BENCH_recode.json"
        assert committed.exists(), "BENCH_recode.json must be committed"
        assert check_bench_artifacts(committed) == []


class TestBenchCli:
    def test_runtime_flag_dispatches_bench_files(self, tmp_path, capsys):
        from repro.cli import main

        clean = tmp_path / "BENCH_ok.json"
        clean.write_text(json.dumps(_bench_payload()), encoding="utf-8")
        assert main(["lint", "--no-code", "--runtime", str(clean)]) == 0

        broken_payload = _bench_payload()
        broken_payload["entries"][0]["cases"][0]["plane_equivalent"] = False
        broken = tmp_path / "BENCH_bad.json"
        broken.write_text(json.dumps(broken_payload), encoding="utf-8")
        assert main(["lint", "--no-code", "--runtime", str(broken)]) == 1
        assert "ART012" in capsys.readouterr().out

    def test_stale_serve_document_is_one_art012_error(self, tmp_path, capsys):
        # A leftover serve benchmark document is not a trajectory: it must
        # fail with one finding naming its schema, not crash or pass.
        from repro.cli import main

        stale = tmp_path / "BENCH_serve.json"
        stale.write_text(
            json.dumps(
                {
                    "schema": "repro.bench/serve@1",
                    "suite": "serve",
                    "git_rev": "abc1234",
                    "clients": 4,
                    "throughput_rps": 36.0,
                    "endpoints": {},
                }
            ),
            encoding="utf-8",
        )
        argv = ["lint", "--no-code", "--strict", "--format", "json"]
        assert main(argv + ["--runtime", str(stale)]) == 1
        findings = json.loads(capsys.readouterr().out)["diagnostics"]
        assert [finding["rule"] for finding in findings] == ["ART012"]
        assert "'repro.bench/serve@1'" in findings[0]["message"]

    def test_select_art012_filters_runtime_findings(self, tmp_path, capsys):
        from repro.cli import main

        broken_payload = _bench_payload(schema="bogus@0")
        broken = tmp_path / "BENCH_bad.json"
        broken.write_text(json.dumps(broken_payload), encoding="utf-8")
        assert (
            main(
                ["lint", "--no-code", "--runtime", str(broken), "--select", "ART012"]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "ART012" in out
