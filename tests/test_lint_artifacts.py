"""Tests for Layer 1 of repro.lint: artifact analysis (ART001, ART002, ART012)."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.anonymize.engine import recode
from repro.datasets import paper_tables
from repro.hierarchy.base import SUPPRESSED, Hierarchy
from repro.hierarchy.categorical import TaxonomyHierarchy
from repro.lint import api
from repro.lint.artifacts import (
    BENCH_SCHEMA,
    check_bench_artifacts,
    check_hierarchy,
    domain_sample,
)
from repro.lint.diagnostics import LintError, Severity


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

    def test_broken_marital_taxonomy_reports_art002(self):
        findings = check_hierarchy(broken_marital_hierarchy())
        assert "ART002" in rule_ids(errors_of(findings))
        assert any("Married" in d.message for d in findings)


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

    def test_check_hierarchy_findings_are_all_blocking(self):
        findings = check_hierarchy(broken_marital_hierarchy())
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
