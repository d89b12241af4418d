"""Tests for SWOPE mutual-information top-k (Algorithm 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exact import exact_mutual_informations
from repro.core.swope import swope_top_k_mutual_information
from repro.data.column_store import ColumnStore
from repro.exceptions import ParameterError, SchemaError
from repro.experiments.accuracy import check_top_k_guarantee


class TestBasicBehaviour:
    def test_copy_beats_noise_beats_independent(self, correlated_store):
        result = swope_top_k_mutual_information(
            correlated_store, "target", k=2, seed=0
        )
        assert result.attributes == ["copy", "noisy"]
        assert result.target == "target"

    def test_target_never_in_answer(self, correlated_store):
        result = swope_top_k_mutual_information(
            correlated_store, "target", k=3, seed=0
        )
        assert "target" not in result.attributes

    def test_k_clamped_to_candidates(self, correlated_store):
        result = swope_top_k_mutual_information(
            correlated_store, "target", k=50, seed=0
        )
        assert len(result.attributes) == 3

    def test_explicit_candidates(self, correlated_store):
        result = swope_top_k_mutual_information(
            correlated_store, "target", k=1, seed=0,
            candidates=["noisy", "independent"],
        )
        assert result.attributes == ["noisy"]

    def test_unknown_target_rejected(self, correlated_store):
        with pytest.raises(SchemaError):
            swope_top_k_mutual_information(correlated_store, "ghost", k=1)

    def test_target_in_candidates_rejected(self, correlated_store):
        with pytest.raises(ParameterError):
            swope_top_k_mutual_information(
                correlated_store, "target", k=1, candidates=["target", "copy"]
            )

    def test_unknown_candidate_rejected(self, correlated_store):
        with pytest.raises(SchemaError):
            swope_top_k_mutual_information(
                correlated_store, "target", k=1, candidates=["ghost"]
            )

    def test_single_attribute_store_rejected(self):
        store = ColumnStore({"only": np.zeros(10, dtype=int)})
        with pytest.raises(ParameterError, match="at least one candidate"):
            swope_top_k_mutual_information(store, "only", k=1)

    def test_deterministic_given_seed(self, correlated_store):
        a = swope_top_k_mutual_information(correlated_store, "target", k=2, seed=5)
        b = swope_top_k_mutual_information(correlated_store, "target", k=2, seed=5)
        assert a.attributes == b.attributes
        assert a.stats.cells_scanned == b.stats.cells_scanned


class TestStatsAndBounds:
    def test_estimates_within_bounds(self, correlated_store):
        result = swope_top_k_mutual_information(
            correlated_store, "target", k=3, seed=0
        )
        for est in result.estimates:
            assert est.lower <= est.estimate <= est.upper
            assert est.lower >= 0.0

    def test_cells_include_joint_reads(self, correlated_store):
        result = swope_top_k_mutual_information(
            correlated_store, "target", k=1, seed=0
        )
        # At minimum: target column + each candidate + each pair at M0.
        m0 = result.stats.final_sample_size
        assert result.stats.cells_scanned >= m0


class TestGuarantee:
    def test_definition5_holds(self, correlated_store):
        exact = exact_mutual_informations(correlated_store, "target")
        epsilon = 0.5
        for seed in range(4):
            result = swope_top_k_mutual_information(
                correlated_store, "target", k=2, epsilon=epsilon, seed=seed
            )
            assert check_top_k_guarantee(result, exact, epsilon) == []

    def test_independent_columns_only(self):
        rng = np.random.default_rng(9)
        n = 3000
        store = ColumnStore(
            {
                "t": rng.integers(0, 4, n),
                "a": rng.integers(0, 4, n),
                "b": rng.integers(0, 4, n),
            }
        )
        result = swope_top_k_mutual_information(store, "t", k=1, seed=0)
        assert len(result.attributes) == 1
        # True MI is ~0; any answer is acceptable, the estimate must be small.
        assert result.estimates[0].estimate < 0.5
