"""Integrity of the shipped reference results (results/*.json).

EXPERIMENTS.md quotes these numbers and `repro compare` diffs against
them, so the repository's own artifacts must stay loadable and
internally consistent. These tests do not re-run anything — they only
validate the stored files.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.figures import FIGURES
from repro.experiments.persistence import load_figure_run
from repro.experiments.summary import summarize_run

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

pytestmark = pytest.mark.skipif(
    not RESULTS_DIR.exists(), reason="reference results not generated"
)


@pytest.mark.parametrize("figure_id", sorted(FIGURES))
def test_reference_loads_and_is_complete(figure_id):
    path = RESULTS_DIR / f"{figure_id}.json"
    assert path.exists(), f"missing reference {path}"
    run = load_figure_run(path)
    spec = FIGURES[figure_id]
    expected = len(run.datasets) * len(spec.x_values) * len(spec.algorithms)
    assert len(run.points) == expected
    assert run.datasets == ["cdc", "hus", "pus", "enem"]
    assert run.scale == 1.0


@pytest.mark.parametrize("figure_id", sorted(FIGURES))
def test_reference_accuracy_claims(figure_id):
    """The EXPERIMENTS.md accuracy statements hold in the stored data."""
    run = load_figure_run(RESULTS_DIR / f"{figure_id}.json")
    summary = summarize_run(run)
    lo, hi = summary.swope_accuracy
    assert hi == 1.0
    if figure_id in ("fig9", "fig10"):  # the documented epsilon cliffs
        assert lo >= 0.74
    else:
        assert lo == 1.0


@pytest.mark.parametrize("figure_id", ["fig1", "fig3", "fig5", "fig7"])
def test_reference_ordering_claims(figure_id):
    """SWOPE <= baseline <= exact in cells at every stored point."""
    run = load_figure_run(RESULTS_DIR / f"{figure_id}.json")
    summary = summarize_run(run)
    for baseline, (lo, _hi) in summary.speedups.items():
        assert lo >= 1.0, f"{figure_id}: swope slower than {baseline} in cells"


def test_reference_headline_factors():
    """The headline ranges quoted in EXPERIMENTS.md / README."""
    fig1 = summarize_run(load_figure_run(RESULTS_DIR / "fig1.json"))
    lo, hi = fig1.speedups["entropy_rank"]
    assert 3.5 <= lo and hi <= 10.0
    lo, hi = fig1.speedups["exact"]
    assert lo >= 79.0 and hi <= 280.0


def test_reference_text_tables_exist():
    for figure_id in FIGURES:
        text = (RESULTS_DIR / f"{figure_id}.txt").read_text()
        assert figure_id in text
    assert "31,290,943" in (RESULTS_DIR / "table2.txt").read_text()
