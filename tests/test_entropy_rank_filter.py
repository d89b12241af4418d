"""Tests for the EntropyRank/EntropyFilter baselines (exact stopping)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    entropy_filter,
    entropy_filter_mutual_information,
    entropy_rank_top_k,
    entropy_rank_top_k_mutual_information,
)
from repro.baselines.exact import (
    exact_entropies,
    exact_mutual_informations,
)
from repro.data.column_store import ColumnStore
from repro.exceptions import ParameterError, SchemaError


class TestEntropyRank:
    def test_returns_exact_top_k(self, small_store):
        exact = exact_entropies(small_store)
        ranking = sorted(exact, key=lambda a: -exact[a])
        for k in (1, 2, 3):
            result = entropy_rank_top_k(small_store, k, seed=0)
            assert set(result.attributes) == set(ranking[:k])

    def test_exact_answer_across_seeds(self, small_store):
        answers = {
            tuple(sorted(entropy_rank_top_k(small_store, 2, seed=s).attributes))
            for s in range(5)
        }
        assert answers == {("medium", "wide")}

    def test_stops_early_on_separated_data(self, small_store):
        result = entropy_rank_top_k(small_store, 1, seed=0)
        assert result.stats.final_sample_size < small_store.num_rows

    def test_runs_to_full_sample_on_exact_ties(self):
        # Two identical columns: the gap is 0, so the exact stopping rule
        # can only fire at M = N.
        values = np.arange(2000) % 16
        store = ColumnStore({"t1": values, "t2": values.copy()})
        result = entropy_rank_top_k(store, 1, seed=0)
        assert result.stats.final_sample_size == store.num_rows

    def test_k_clamped(self, small_store):
        result = entropy_rank_top_k(small_store, 100, seed=0)
        assert len(result.attributes) == small_store.num_attributes

    def test_unknown_attribute_rejected(self, small_store):
        with pytest.raises(SchemaError):
            entropy_rank_top_k(small_store, 1, attributes=["ghost"])

    def test_prune_preserves_answer(self, small_store):
        pruned = entropy_rank_top_k(small_store, 2, seed=3)
        unpruned = entropy_rank_top_k(small_store, 2, seed=3, prune=False)
        assert set(pruned.attributes) == set(unpruned.attributes)


class TestEntropyFilter:
    def test_returns_exact_answer(self, small_store):
        exact = exact_entropies(small_store)
        for threshold in (0.5, 2.0, 6.0):
            result = entropy_filter(small_store, threshold, seed=0)
            expected = {a for a, s in exact.items() if s >= threshold}
            assert result.answer_set() == expected

    def test_score_equal_to_threshold_is_included(self):
        store = ColumnStore({"x": np.array([0, 1] * 100), "y": np.zeros(200, dtype=int)})
        result = entropy_filter(store, 1.0, seed=0)
        assert "x" in result  # H(x) == eta exactly -> >= eta -> included

    def test_stops_early_when_scores_far_from_threshold(self, small_store):
        result = entropy_filter(small_store, 4.0, seed=0)
        assert result.stats.final_sample_size < small_store.num_rows

    def test_empty_answer(self, small_store):
        assert entropy_filter(small_store, 100.0, seed=0).attributes == []

    def test_invalid_threshold(self, small_store):
        with pytest.raises(ParameterError):
            entropy_filter(small_store, -0.1)


class TestMIVariants:
    def test_mi_rank_exact_answer(self, correlated_store):
        exact = exact_mutual_informations(correlated_store, "target")
        ranking = sorted(exact, key=lambda a: -exact[a])
        result = entropy_rank_top_k_mutual_information(
            correlated_store, "target", 2, seed=0
        )
        assert set(result.attributes) == set(ranking[:2])
        assert result.target == "target"

    def test_mi_rank_target_excluded(self, correlated_store):
        result = entropy_rank_top_k_mutual_information(
            correlated_store, "target", 3, seed=0
        )
        assert "target" not in result.attributes

    def test_mi_rank_rejects_target_candidate(self, correlated_store):
        with pytest.raises(ParameterError):
            entropy_rank_top_k_mutual_information(
                correlated_store, "target", 1, candidates=["target"]
            )

    def test_mi_filter_exact_answer(self, correlated_store):
        exact = exact_mutual_informations(correlated_store, "target")
        for threshold in (0.5, 1.5):
            result = entropy_filter_mutual_information(
                correlated_store, "target", threshold, seed=0
            )
            expected = {a for a, s in exact.items() if s >= threshold}
            assert result.answer_set() == expected

    def test_mi_filter_unknown_target(self, correlated_store):
        with pytest.raises(SchemaError):
            entropy_filter_mutual_information(correlated_store, "ghost", 0.5)


class TestAgreementWithExactBaseline:
    """EntropyRank/Filter must agree with the full-scan baseline answer."""

    def test_topk_agreement_random_stores(self):
        rng = np.random.default_rng(7)
        for trial in range(3):
            n = 3000
            store = ColumnStore(
                {
                    f"c{i}": rng.integers(0, rng.integers(2, 100), n)
                    for i in range(6)
                }
            )
            exact = exact_entropies(store)
            ranking = sorted(exact, key=lambda a: -exact[a])
            result = entropy_rank_top_k(store, 2, seed=trial)
            assert set(result.attributes) == set(ranking[:2])

    def test_filter_agreement_random_stores(self):
        rng = np.random.default_rng(8)
        for trial in range(3):
            n = 3000
            store = ColumnStore(
                {
                    f"c{i}": rng.integers(0, rng.integers(2, 100), n)
                    for i in range(6)
                }
            )
            exact = exact_entropies(store)
            result = entropy_filter(store, 2.5, seed=trial)
            expected = {a for a, s in exact.items() if s >= 2.5}
            assert result.answer_set() == expected
