"""Tests for the describe utility and the LaTeX renderers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.data.column_store import ColumnStore
from repro.data.describe import describe_store, profile_attribute
from repro.exceptions import ParameterError, SchemaError
from repro.experiments.figures import run_figure, run_table2
from repro.experiments.latex import figure_latex, table2_latex


class TestProfileAttribute:
    @pytest.fixture(scope="class")
    def store(self):
        return ColumnStore(
            {
                "uniform4": np.array([0, 1, 2, 3] * 25),
                "skew": np.array([0] * 90 + [1] * 10),
                "constant": np.zeros(100, dtype=np.int64),
                "sparse_domain": np.array([0, 1] * 50),
            },
            support_sizes={
                "uniform4": 4, "skew": 2, "constant": 1, "sparse_domain": 10,
            },
        )

    def test_uniform_profile(self, store):
        profile = profile_attribute(store, "uniform4")
        assert profile.support_size == 4
        assert profile.observed_values == 4
        assert profile.entropy == pytest.approx(2.0)
        assert profile.max_entropy == pytest.approx(2.0)
        assert profile.normalized_entropy == pytest.approx(1.0)
        assert profile.top_share == pytest.approx(0.25)

    def test_skewed_profile(self, store):
        profile = profile_attribute(store, "skew")
        assert profile.top_share == pytest.approx(0.9)
        assert profile.top_code == 0
        assert 0 < profile.normalized_entropy < 1

    def test_constant_profile(self, store):
        profile = profile_attribute(store, "constant")
        assert profile.entropy == 0.0
        assert profile.max_entropy == 0.0
        assert profile.normalized_entropy == 0.0
        assert profile.top_share == 1.0

    def test_sparse_domain(self, store):
        profile = profile_attribute(store, "sparse_domain")
        assert profile.observed_values == 2
        assert profile.support_size == 10
        assert profile.max_entropy == pytest.approx(math.log2(10))

    def test_unknown_attribute(self, store):
        with pytest.raises(SchemaError):
            profile_attribute(store, "ghost")

    def test_describe_sorted_by_entropy(self, store):
        profiles = describe_store(store)
        entropies = [p.entropy for p in profiles]
        assert entropies == sorted(entropies, reverse=True)

    def test_describe_sorted_by_name(self, store):
        profiles = describe_store(store, sort_by="name")
        names = [p.attribute for p in profiles]
        assert names == sorted(names)

    def test_describe_invalid_sort(self, store):
        with pytest.raises(SchemaError):
            describe_store(store, sort_by="vibes")


class TestLatex:
    @pytest.fixture(scope="class")
    def run(self):
        return run_figure("fig1", datasets=["cdc"], scale=0.01, seed=0)

    def test_figure_latex_structure(self, run):
        tex = figure_latex(run, "seconds")
        assert tex.count("\\begin{tabular}") == 1
        assert tex.count("\\toprule") == 1
        assert "swope" in tex
        assert "entropy\\_rank" in tex  # underscore escaped
        for k in (1, 2, 4, 8, 10):
            assert f"\n{k} &" in tex

    def test_figure_latex_metrics(self, run):
        cells = figure_latex(run, "cells_scanned")
        assert "," in cells  # thousands separators
        accuracy = figure_latex(run, "accuracy")
        assert "1.000" in accuracy
        with pytest.raises(ParameterError):
            figure_latex(run, "vibes")

    def test_figure_latex_empty_rejected(self, run):
        import copy

        empty = copy.copy(run)
        empty.points = []
        with pytest.raises(ParameterError, match="no measurements"):
            figure_latex(empty)

    def test_table2_latex(self):
        tex = table2_latex(run_table2())
        assert "31,290,943" in tex
        assert tex.count("\\\\") >= 5
        assert "\\bottomrule" in tex
