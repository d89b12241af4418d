"""Tests for the experiment runner and figure registry.

These run real (tiny-scale) queries over one synthetic dataset, so they
also act as integration tests of the whole stack.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import exact_entropies, exact_mutual_informations
from repro.core.plan import QuerySpec
from repro.data.column_store import ColumnStore
from repro.exceptions import ParameterError
from repro.experiments.figures import FIGURES, FigureSpec, run_figure, run_table2
from repro.experiments.runner import (
    ALGORITHMS,
    GroundTruthCache,
    run_query,
)
from repro.synth.datasets import load_dataset


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("cdc", scale=0.01)


@pytest.fixture(scope="module")
def truth():
    return GroundTruthCache()


class TestRunner:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_entropy_topk_all_algorithms(self, dataset, truth, algorithm):
        spec = QuerySpec("top_k", "entropy", k=4)
        outcome = run_query(dataset.store, algorithm, spec, truth=truth)
        assert outcome.query == "entropy_topk"
        assert outcome.algorithm == algorithm
        assert len(outcome.answer) == 4
        assert 0.0 <= outcome.accuracy <= 1.0
        assert outcome.cells_scanned > 0
        assert outcome.wall_seconds >= 0.0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_entropy_filter_all_algorithms(self, dataset, truth, algorithm):
        spec = QuerySpec("filter", "entropy", threshold=2.0)
        outcome = run_query(dataset.store, algorithm, spec, truth=truth)
        assert outcome.query == "entropy_filter"
        assert "precision" in outcome.extra
        assert 0.0 <= outcome.accuracy <= 1.0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_mi_topk_all_algorithms(self, dataset, truth, algorithm):
        target = dataset.mi_targets[0]
        spec = QuerySpec("top_k", "mutual_information", k=2, target=target)
        outcome = run_query(dataset.store, algorithm, spec, truth=truth)
        assert outcome.query == "mi_topk"
        assert len(outcome.answer) == 2
        assert target not in outcome.answer

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_mi_filter_all_algorithms(self, dataset, truth, algorithm):
        target = dataset.mi_targets[0]
        spec = QuerySpec(
            "filter", "mutual_information", threshold=0.3, target=target
        )
        outcome = run_query(dataset.store, algorithm, spec, truth=truth)
        assert outcome.query == "mi_filter"
        assert outcome.parameter == 0.3

    def test_exact_algorithm_reads_everything(self, dataset, truth):
        spec = QuerySpec("top_k", "entropy", k=1)
        outcome = run_query(dataset.store, "exact", spec, truth=truth)
        assert outcome.sample_fraction == 1.0

    def test_exact_algorithm_perfect_accuracy(self, dataset, truth):
        for k in (1, 4):
            spec = QuerySpec("top_k", "entropy", k=k)
            outcome = run_query(dataset.store, "exact", spec, truth=truth)
            assert outcome.accuracy == 1.0

    def test_unknown_algorithm_rejected(self, dataset):
        with pytest.raises(ParameterError, match="unknown algorithm"):
            run_query(dataset.store, "magic", QuerySpec("top_k", "entropy", k=1))

    def test_ground_truth_cache_reuses_scans(self, dataset):
        cache = GroundTruthCache()
        first = cache.entropies(dataset.store)
        second = cache.entropies(dataset.store)
        assert first is second
        target = dataset.mi_targets[0]
        assert cache.mutual_informations(dataset.store, target) is (
            cache.mutual_informations(dataset.store, target)
        )

    @pytest.mark.parametrize("score", ["entropy", "mutual_information"])
    def test_ground_truth_cache_never_serves_a_dropped_store(self, score):
        # Stores built and dropped in a loop recycle their memory, so a
        # cache keyed on the store's id alone hands a new store the
        # scores of one it no longer holds.
        cache = GroundTruthCache()
        rng = np.random.default_rng(0)
        for _ in range(200):
            store = ColumnStore(
                {"t": rng.integers(0, 4, 64), "a": rng.integers(0, 8, 64)}
            )
            if score == "entropy":
                assert cache.entropies(store) == exact_entropies(store)
            else:
                assert cache.mutual_informations(store, "t") == (
                    exact_mutual_informations(store, "t")
                )


class TestFigureRegistry:
    def test_twelve_figures(self):
        assert len(FIGURES) == 12
        assert set(FIGURES) == {f"fig{i}" for i in range(1, 13)}

    def test_parameter_grids_match_paper(self):
        assert FIGURES["fig1"].x_values == (1, 2, 4, 8, 10)
        assert FIGURES["fig3"].x_values == (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
        assert FIGURES["fig7"].x_values == (0.1, 0.2, 0.3, 0.4, 0.5)
        assert FIGURES["fig9"].x_values == (0.01, 0.025, 0.05, 0.1, 0.25, 0.5)

    def test_default_epsilons_match_paper(self):
        assert FIGURES["fig1"].epsilon == 0.1
        assert FIGURES["fig3"].epsilon == 0.05
        assert FIGURES["fig5"].epsilon == 0.5
        assert FIGURES["fig7"].epsilon == 0.5

    def test_epsilon_sweeps_fix_paper_parameters(self):
        assert FIGURES["fig9"].fixed_k == 4
        assert FIGURES["fig10"].fixed_eta == 2.0
        assert FIGURES["fig11"].fixed_k == 4
        assert FIGURES["fig12"].fixed_eta == 0.3

    def test_epsilon_sweeps_run_swope_only(self):
        for fig in ("fig9", "fig10", "fig11", "fig12"):
            assert FIGURES[fig].algorithms == ("swope",)

    def test_x_label(self):
        assert FIGURES["fig1"].x_label() == "k"
        assert FIGURES["fig3"].x_label() == "eta"
        assert FIGURES["fig9"].x_label() == "epsilon"


class TestRunFigure:
    def test_unknown_figure_rejected(self):
        with pytest.raises(ParameterError, match="unknown figure"):
            run_figure("fig99")

    def test_small_run_produces_full_grid(self):
        run = run_figure("fig1", datasets=["cdc"], scale=0.01, seed=0)
        spec = FIGURES["fig1"]
        assert len(run.points) == len(spec.x_values) * len(spec.algorithms)
        assert {p.algorithm for p in run.points} == set(spec.algorithms)

    def test_series_extraction(self):
        run = run_figure("fig9", datasets=["cdc"], scale=0.01, seed=0)
        series = run.series("cdc", "swope", "cells_scanned")
        assert [x for x, _ in series] == list(FIGURES["fig9"].x_values)
        assert all(v > 0 for _, v in series)

    def test_epsilon_sweep_cost_decreases(self):
        run = run_figure("fig9", datasets=["cdc"], scale=0.01, seed=0)
        series = dict(run.series("cdc", "swope", "cells_scanned"))
        assert series[0.5] <= series[0.01]

    def test_speedup_accessor(self):
        run = run_figure("fig1", datasets=["cdc"], scale=0.01, seed=0)
        assert run.speedup("cdc", "exact", 1.0) >= 1.0
        with pytest.raises(ParameterError):
            run.speedup("cdc", "exact", 99.0)

    def test_mi_figure_with_targets(self):
        run = run_figure(
            "fig5", datasets=["cdc"], scale=0.01, num_targets=2, seed=0
        )
        assert all(0.0 <= p.accuracy <= 1.0 for p in run.points)


class TestTable2:
    def test_rows(self):
        rows = run_table2()
        assert len(rows) == 4
        assert {r["dataset"] for r in rows} == {"cdc", "hus", "pus", "enem"}
