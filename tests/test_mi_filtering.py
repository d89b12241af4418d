"""Tests for SWOPE mutual-information filtering (Algorithm 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exact import exact_mutual_informations
from repro.core.swope import swope_filter_mutual_information
from repro.data.column_store import ColumnStore
from repro.exceptions import ParameterError, SchemaError
from repro.experiments.accuracy import check_filter_guarantee


class TestBasicBehaviour:
    def test_high_mi_included_low_excluded(self, correlated_store):
        exact = exact_mutual_informations(correlated_store, "target")
        # copy has MI = H(target) ~ 3 bits, independent ~ 0.
        result = swope_filter_mutual_information(
            correlated_store, "target", 1.0, seed=0
        )
        assert "copy" in result
        assert "independent" not in result
        assert result.target == "target"
        assert exact["copy"] > 1.0 > exact["independent"]

    def test_threshold_zero_includes_all_candidates(self, correlated_store):
        result = swope_filter_mutual_information(
            correlated_store, "target", 0.0, seed=0
        )
        assert result.answer_set() == {"copy", "noisy", "independent"}

    def test_huge_threshold_excludes_all(self, correlated_store):
        result = swope_filter_mutual_information(
            correlated_store, "target", 50.0, seed=0
        )
        assert result.attributes == []

    def test_unknown_target_rejected(self, correlated_store):
        with pytest.raises(SchemaError):
            swope_filter_mutual_information(correlated_store, "ghost", 0.5)

    def test_target_in_candidates_rejected(self, correlated_store):
        with pytest.raises(ParameterError):
            swope_filter_mutual_information(
                correlated_store, "target", 0.5, candidates=["target"]
            )

    def test_negative_threshold_rejected(self, correlated_store):
        with pytest.raises(ParameterError):
            swope_filter_mutual_information(correlated_store, "target", -0.5)

    def test_estimates_cover_all_candidates(self, correlated_store):
        result = swope_filter_mutual_information(
            correlated_store, "target", 1.0, seed=0
        )
        assert set(result.estimates) == {"copy", "noisy", "independent"}


class TestGuarantee:
    def test_definition6_holds_across_thresholds(self, correlated_store):
        exact = exact_mutual_informations(correlated_store, "target")
        epsilon = 0.5
        for threshold in (0.2, 1.0, 2.0):
            for seed in range(3):
                result = swope_filter_mutual_information(
                    correlated_store, "target", threshold,
                    epsilon=epsilon, seed=seed,
                )
                assert check_filter_guarantee(result, exact, epsilon) == []

    def test_tight_epsilon_matches_exact_answer(self, correlated_store):
        exact = exact_mutual_informations(correlated_store, "target")
        threshold = 1.0
        result = swope_filter_mutual_information(
            correlated_store, "target", threshold, epsilon=0.05, seed=0
        )
        # Scores are far from the threshold, so even the relaxed answer is
        # the exact one.
        expected = {a for a, s in exact.items() if s >= threshold}
        assert result.answer_set() == expected

    def test_binary_columns(self):
        rng = np.random.default_rng(2)
        n = 3000
        t = rng.integers(0, 2, n)
        flip = rng.random(n) < 0.1
        store = ColumnStore(
            {
                "t": t,
                "mostly_same": np.where(flip, 1 - t, t),
                "random": rng.integers(0, 2, n),
            }
        )
        result = swope_filter_mutual_information(store, "t", 0.3, seed=0)
        assert "mostly_same" in result
        assert "random" not in result
