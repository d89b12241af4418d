"""Tests for SWOPE entropy top-k (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exact import exact_entropies
from repro.core.schedule import SampleSchedule
from repro.core.swope import swope_top_k_entropy
from repro.data.column_store import ColumnStore
from repro.exceptions import ParameterError, SchemaError
from repro.experiments.accuracy import check_top_k_guarantee


class TestBasicBehaviour:
    def test_returns_k_attributes_ordered_by_upper_bound(self, small_store):
        result = swope_top_k_entropy(small_store, k=2, seed=0)
        assert len(result.attributes) == 2
        uppers = [e.upper for e in result.estimates]
        assert uppers == sorted(uppers, reverse=True)

    def test_finds_exact_top_k_on_separated_data(self, small_store):
        # entropies: wide ~7.6 > medium ~5.6 > narrow ~2.0 > skewed ~0.3
        result = swope_top_k_entropy(small_store, k=2, seed=0)
        assert result.attributes == ["wide", "medium"]

    def test_k_larger_than_attribute_count(self, small_store):
        result = swope_top_k_entropy(small_store, k=100, seed=0)
        assert len(result.attributes) == small_store.num_attributes
        assert result.k == 100

    def test_k_equals_one(self, small_store):
        result = swope_top_k_entropy(small_store, k=1, seed=0)
        assert result.attributes == ["wide"]

    def test_restricted_attribute_list(self, small_store):
        result = swope_top_k_entropy(
            small_store, k=1, seed=0, attributes=["narrow", "skewed"]
        )
        assert result.attributes == ["narrow"]

    def test_unknown_attribute_rejected(self, small_store):
        with pytest.raises(SchemaError):
            swope_top_k_entropy(small_store, k=1, attributes=["ghost"])

    def test_invalid_parameters(self, small_store):
        with pytest.raises(ParameterError):
            swope_top_k_entropy(small_store, k=0)
        with pytest.raises(ParameterError):
            swope_top_k_entropy(small_store, k=1, epsilon=0.0)
        with pytest.raises(ParameterError):
            swope_top_k_entropy(small_store, k=1, epsilon=1.0)
        with pytest.raises(ParameterError):
            swope_top_k_entropy(small_store, k=1, failure_probability=2.0)

    def test_deterministic_given_seed(self, small_store):
        a = swope_top_k_entropy(small_store, k=2, seed=42)
        b = swope_top_k_entropy(small_store, k=2, seed=42)
        assert a.attributes == b.attributes
        assert a.stats.final_sample_size == b.stats.final_sample_size

    def test_estimates_within_bounds(self, small_store):
        result = swope_top_k_entropy(small_store, k=3, seed=0)
        for est in result.estimates:
            assert est.lower <= est.estimate <= est.upper


class TestStats:
    def test_stats_populated(self, small_store):
        result = swope_top_k_entropy(small_store, k=2, seed=0)
        stats = result.stats
        assert stats.population_size == small_store.num_rows
        assert 1 <= stats.final_sample_size <= small_store.num_rows
        assert stats.iterations >= 1
        assert stats.cells_scanned > 0
        assert stats.wall_seconds >= 0.0

    def test_never_samples_beyond_population(self, small_store):
        result = swope_top_k_entropy(small_store, k=2, epsilon=0.01, seed=0)
        assert result.stats.final_sample_size <= small_store.num_rows

    def test_larger_epsilon_stops_earlier(self, small_store):
        tight = swope_top_k_entropy(small_store, k=2, epsilon=0.05, seed=0)
        loose = swope_top_k_entropy(small_store, k=2, epsilon=0.8, seed=0)
        assert (
            loose.stats.final_sample_size <= tight.stats.final_sample_size
        )

    def test_pruning_counts_recorded(self, small_store):
        result = swope_top_k_entropy(small_store, k=1, epsilon=0.01, seed=0)
        loose = swope_top_k_entropy(
            small_store, k=1, epsilon=0.01, seed=0, prune=False
        )
        assert loose.stats.candidates_pruned == 0
        assert result.stats.candidates_pruned >= 0

    def test_prune_does_not_change_answer(self, small_store):
        pruned = swope_top_k_entropy(small_store, k=2, epsilon=0.05, seed=7)
        unpruned = swope_top_k_entropy(
            small_store, k=2, epsilon=0.05, seed=7, prune=False
        )
        assert pruned.attributes == unpruned.attributes


class TestGuarantee:
    def test_definition5_holds_on_separated_data(self, small_store):
        epsilon = 0.2
        exact = exact_entropies(small_store)
        for seed in range(5):
            result = swope_top_k_entropy(
                small_store, k=2, epsilon=epsilon, seed=seed
            )
            assert check_top_k_guarantee(result, exact, epsilon) == []

    def test_definition5_holds_with_near_ties(self):
        rng = np.random.default_rng(3)
        n = 4000
        # Two nearly identical high-entropy columns: the exact top-1 set is
        # ambiguous, but Definition 5 must hold for whichever is returned.
        store = ColumnStore(
            {
                "t1": rng.integers(0, 64, n),
                "t2": rng.integers(0, 64, n),
                "low": rng.integers(0, 3, n),
            }
        )
        exact = exact_entropies(store)
        epsilon = 0.3
        for seed in range(5):
            result = swope_top_k_entropy(store, k=1, epsilon=epsilon, seed=seed)
            assert check_top_k_guarantee(result, exact, epsilon) == []

    def test_all_constant_columns(self):
        store = ColumnStore(
            {"c1": np.zeros(100, dtype=int), "c2": np.zeros(100, dtype=int)}
        )
        result = swope_top_k_entropy(store, k=1, seed=0)
        assert len(result.attributes) == 1
        assert result.estimates[0].estimate == pytest.approx(0.0, abs=1e-6)


class TestCustomScheduleAndSampler:
    def test_custom_schedule_respected(self, small_store):
        schedule = SampleSchedule(
            population_size=small_store.num_rows, initial_size=small_store.num_rows
        )
        result = swope_top_k_entropy(small_store, k=2, schedule=schedule, seed=0)
        assert result.stats.iterations == 1
        assert result.stats.final_sample_size == small_store.num_rows

    def test_sequential_sampler(self, small_store):
        result = swope_top_k_entropy(small_store, k=2, sequential=True)
        assert result.attributes == ["wide", "medium"]
