"""Experiment harness: accuracy metrics, runners, and the figure registry.

Reproduces the paper's evaluation (Section 6): Table 2 and Figures 1–12,
over the synthetic dataset analogues of :mod:`repro.synth`. The pytest
benchmarks under ``benchmarks/`` and the CLI (``repro figure fig1``) both
drive this package.
"""

from repro.experiments.accuracy import (
    FilterAccuracy,
    check_filter_guarantee,
    check_top_k_guarantee,
    filter_precision_recall,
    relative_error,
    top_k_accuracy,
)
from repro.experiments.figures import (
    FIGURES,
    FigurePoint,
    FigureRun,
    FigureSpec,
    figure_queries,
    run_figure,
    run_table2,
)
from repro.experiments.latex import figure_latex, table2_latex
from repro.experiments.persistence import load_figure_run, save_figure_run
from repro.experiments.plotting import figure_svg, save_figure_svg
from repro.experiments.regression import PointDelta, RunComparison, compare_runs
from repro.experiments.report import format_table, render_figure, render_table2
from repro.experiments.summary import FigureSummary, summarize_run
from repro.experiments.runner import (
    ALGORITHMS,
    GroundTruthCache,
    QueryOutcome,
    run_query,
)
from repro.experiments.workloads import (
    CensusTrackReport,
    ScenarioOutcome,
    ScenarioQueryReport,
    census_plan,
    render_track,
    run_census_applications,
    run_census_track,
    run_scenario,
    save_track_report,
)

__all__ = [
    "ALGORITHMS",
    "CensusTrackReport",
    "FIGURES",
    "FigurePoint",
    "FigureRun",
    "FigureSpec",
    "FigureSummary",
    "FilterAccuracy",
    "GroundTruthCache",
    "PointDelta",
    "QueryOutcome",
    "RunComparison",
    "ScenarioOutcome",
    "ScenarioQueryReport",
    "census_plan",
    "check_filter_guarantee",
    "check_top_k_guarantee",
    "compare_runs",
    "figure_latex",
    "figure_queries",
    "figure_svg",
    "filter_precision_recall",
    "format_table",
    "load_figure_run",
    "relative_error",
    "render_figure",
    "render_table2",
    "render_track",
    "run_census_applications",
    "run_census_track",
    "run_scenario",
    "save_figure_run",
    "save_figure_svg",
    "save_track_report",
    "run_figure",
    "run_query",
    "run_table2",
    "summarize_run",
    "table2_latex",
    "top_k_accuracy",
]
