"""Tests for the analysis layer: bias summaries, matrices, tournaments,
reports."""

import ast
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.analysis
from repro.analysis import (
    benefit_counts,
    bias_summary,
    comparison_report,
    copeland_ranking,
    format_relation_matrix,
    gini_coefficient,
    hypervolume_ranking,
    index_matrix,
    property_report,
    relation_matrix,
    win_counts,
)
from repro.core.comparators import CoverageBetter, Relation
from repro.core.indices.binary import coverage
from repro.core.rproperty import privacy_profile
from repro.core.vector import PropertyVector
from repro.datasets import paper_tables

S = PropertyVector((3, 3, 3, 3, 4, 4, 4, 3, 3, 4), "T3a")
T = PropertyVector((3, 7, 7, 3, 7, 7, 7, 3, 7, 7), "T3b")
T4V = PropertyVector((4, 6, 4, 4, 6, 6, 6, 4, 6, 6), "T4")


class TestGini:
    def test_uniform_is_zero(self):
        assert gini_coefficient([5.0] * 10) == pytest.approx(0.0)

    def test_concentrated_is_high(self):
        assert gini_coefficient([0.0] * 9 + [100.0]) > 0.8

    def test_all_zero(self):
        assert gini_coefficient([0.0] * 5) == 0.0

    @given(
        st.lists(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            min_size=2,
            max_size=30,
        )
    )
    def test_bounded(self, values):
        g = gini_coefficient(values)
        assert -1e-9 <= g <= 1.0


class TestBiasSummary:
    def test_t3a_summary(self):
        summary = bias_summary(S)
        assert summary.minimum == 3
        assert summary.maximum == 4
        assert summary.mean == pytest.approx(3.4)
        assert summary.fraction_at_minimum == pytest.approx(0.6)
        assert summary.spread == 1
        assert summary.size == 10

    def test_describe_mentions_stats(self):
        text = bias_summary(S).describe()
        assert "min=3" in text
        assert "gini=" in text

    def test_lower_is_better_oriented(self):
        losses = PropertyVector([0.1, 0.9], higher_is_better=False)
        summary = bias_summary(losses)
        # Oriented: minimum is the worst tuple = -0.9.
        assert summary.minimum == pytest.approx(-0.9)


class TestBenefitCounts:
    def test_section2_per_individual_view(self):
        # T3b vs T4: different individuals favored by each (Figure 1).
        t3b_wins, t4_wins, ties = benefit_counts(T, T4V)
        assert t3b_wins == 7
        assert t4_wins == 3
        assert ties == 0

    def test_symmetry(self):
        a_wins, b_wins, ties = benefit_counts(S, T)
        b_wins2, a_wins2, ties2 = benefit_counts(T, S)
        assert (a_wins, b_wins, ties) == (a_wins2, b_wins2, ties2)


class TestMatrices:
    @pytest.fixture
    def vectors(self):
        return {"T3a": S, "T3b": T, "T4": T4V}

    def test_dominance_matrix(self, vectors):
        matrix = relation_matrix(vectors)
        assert matrix[("T3b", "T3a")] is Relation.BETTER
        assert matrix[("T3a", "T3b")] is Relation.WORSE
        assert matrix[("T3b", "T4")] is Relation.INCOMPARABLE
        assert matrix[("T3a", "T3a")] is Relation.EQUIVALENT

    def test_comparator_matrix(self, vectors):
        matrix = relation_matrix(vectors, CoverageBetter())
        assert matrix[("T3b", "T4")] is Relation.BETTER
        assert matrix[("T4", "T3a")] is Relation.BETTER

    def test_index_matrix(self, vectors):
        values = index_matrix(vectors, coverage)
        assert values[("T3b", "T3a")] == pytest.approx(1.0)
        assert ("T3a", "T3a") not in values

    def test_win_counts(self, vectors):
        counts = win_counts(relation_matrix(vectors, CoverageBetter()))
        assert counts == {"T3b": 2, "T4": 1, "T3a": 0}

    def test_format_matrix(self, vectors):
        text = format_relation_matrix(relation_matrix(vectors), ["T3a", "T3b", "T4"])
        assert "T3a" in text
        assert "||" in text  # the incomparable pair shows up


class TestTournaments:
    @pytest.fixture
    def vectors(self):
        return {"T3a": S, "T3b": T, "T4": T4V}

    def test_hypervolume_ranking(self, vectors):
        ranking = hypervolume_ranking(vectors)
        assert [name for name, _ in ranking] == ["T3b", "T4", "T3a"]

    def test_copeland_ranking(self, vectors):
        ranking = copeland_ranking(vectors, CoverageBetter())
        assert ranking[0] == ("T3b", 2)
        assert ranking[-1] == ("T3a", 0)


class TestReports:
    def test_property_report_sections(self):
        text = property_report({"T3a": S, "T3b": T})
        assert "Bias summaries" in text
        assert "P_cov" in text
        assert "P_spr" in text

    def test_comparison_report_end_to_end(self, t3a, t3b, t4):
        profile = privacy_profile(paper_tables.SENSITIVE_ATTRIBUTE)
        text = comparison_report([t3a, t3b, t4], profile)
        assert "Subjects: T3a, T3b, T4" in text
        assert "equivalence-class-size" in text
        assert "sensitive-value-count" in text


class TestLayering:
    def test_analysis_imports_nothing_from_runtime(self):
        """The comparison machinery is pure: the study runtime calls into
        it, never the reverse."""
        offenders = []
        for path in sorted(Path(repro.analysis.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom):
                    # Relative imports are anchored at repro.analysis.
                    parts = ["repro", "analysis"][: 3 - node.level] if node.level else []
                    module = ".".join(parts + ([node.module] if node.module else []))
                    names = [module] + [f"{module}.{alias.name}" for alias in node.names]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if any(n == "repro.runtime" or n.startswith("repro.runtime.") for n in names):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []
