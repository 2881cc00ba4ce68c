"""Bias quantification, comparison matrices, tournaments and reports."""

from .bias import BiasSummary, benefit_counts, bias_summary, gini_coefficient
from .diagnostics import (
    ComparatorDiagnostics,
    audit_comparator,
    condorcet_cycle_example,
    find_cycles,
)
from .figures import bar_chart, scatter_plot
from .individuals import (
    IndividualPreferences,
    individual_preferences,
    preference_table,
)
from .matrix import (
    format_relation_matrix,
    index_matrix,
    relation_matrix,
    relation_matrix_serial,
    win_counts,
)
from .report import comparison_report, property_report
from .sweep import default_measures, format_sweep, k_sweep
from .tournament import copeland_ranking, hypervolume_ranking

__all__ = [
    "BiasSummary",
    "benefit_counts",
    "bias_summary",
    "gini_coefficient",
    "ComparatorDiagnostics",
    "audit_comparator",
    "condorcet_cycle_example",
    "find_cycles",
    "bar_chart",
    "IndividualPreferences",
    "individual_preferences",
    "preference_table",
    "scatter_plot",
    "format_relation_matrix",
    "index_matrix",
    "relation_matrix",
    "relation_matrix_serial",
    "win_counts",
    "comparison_report",
    "default_measures",
    "format_sweep",
    "k_sweep",
    "property_report",
    "copeland_ranking",
    "hypervolume_ranking",
]
