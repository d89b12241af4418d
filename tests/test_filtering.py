"""Tests for SWOPE entropy filtering (Algorithm 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exact import exact_entropies
from repro.core.schedule import SampleSchedule
from repro.core.swope import swope_filter_entropy
from repro.data.column_store import ColumnStore
from repro.exceptions import ParameterError, SchemaError
from repro.experiments.accuracy import check_filter_guarantee


class TestBasicBehaviour:
    def test_separated_data_filtered_exactly(self, small_store):
        # entropies: wide ~7.6, medium ~5.6, narrow ~2.0, skewed ~0.3
        result = swope_filter_entropy(small_store, 3.0, seed=0)
        assert result.answer_set() == {"wide", "medium"}

    def test_threshold_zero_returns_everything(self, small_store):
        result = swope_filter_entropy(small_store, 0.0, seed=0)
        assert result.answer_set() == set(small_store.attributes)

    def test_threshold_above_everything_returns_empty(self, small_store):
        result = swope_filter_entropy(small_store, 20.0, seed=0)
        assert result.attributes == []

    def test_answer_sorted_by_estimate(self, small_store):
        result = swope_filter_entropy(small_store, 1.0, seed=0)
        estimates = [result.estimates[a].estimate for a in result.attributes]
        assert estimates == sorted(estimates, reverse=True)

    def test_estimates_recorded_for_all_attributes(self, small_store):
        result = swope_filter_entropy(small_store, 3.0, seed=0)
        assert set(result.estimates) == set(small_store.attributes)

    def test_restricted_attributes(self, small_store):
        result = swope_filter_entropy(
            small_store, 1.0, seed=0, attributes=["narrow", "skewed"]
        )
        assert result.answer_set() == {"narrow"}

    def test_unknown_attribute_rejected(self, small_store):
        with pytest.raises(SchemaError):
            swope_filter_entropy(small_store, 1.0, attributes=["ghost"])

    def test_invalid_parameters(self, small_store):
        with pytest.raises(ParameterError):
            swope_filter_entropy(small_store, -1.0)
        with pytest.raises(ParameterError):
            swope_filter_entropy(small_store, 1.0, epsilon=0.0)

    def test_deterministic_given_seed(self, small_store):
        a = swope_filter_entropy(small_store, 2.0, seed=11)
        b = swope_filter_entropy(small_store, 2.0, seed=11)
        assert a.attributes == b.attributes


class TestStats:
    def test_stats_populated(self, small_store):
        result = swope_filter_entropy(small_store, 3.0, seed=0)
        assert result.stats.iterations >= 1
        assert result.stats.final_sample_size <= small_store.num_rows
        assert result.stats.cells_scanned > 0
        assert result.threshold == 3.0

    def test_easy_attributes_decided_early(self, small_store):
        # With a threshold far from every entropy, the loop should finish
        # well before exhausting the dataset.
        result = swope_filter_entropy(small_store, 4.0, epsilon=0.5, seed=0)
        assert result.stats.final_sample_size < small_store.num_rows

    def test_larger_epsilon_cheaper(self, small_store):
        tight = swope_filter_entropy(small_store, 2.1, epsilon=0.02, seed=0)
        loose = swope_filter_entropy(small_store, 2.1, epsilon=0.9, seed=0)
        assert loose.stats.cells_scanned <= tight.stats.cells_scanned


class TestGuarantee:
    def test_definition6_holds_on_separated_data(self, small_store):
        exact = exact_entropies(small_store)
        for epsilon in (0.05, 0.2, 0.5):
            for threshold in (0.5, 2.0, 6.0):
                result = swope_filter_entropy(
                    small_store, threshold, epsilon=epsilon, seed=1
                )
                assert check_filter_guarantee(result, exact, epsilon) == []

    def test_definition6_holds_near_threshold(self):
        rng = np.random.default_rng(5)
        n = 4000
        store = ColumnStore(
            {
                "at2": rng.integers(0, 4, n),  # entropy ~2.0, threshold 2.0
                "high": rng.integers(0, 64, n),
                "low": (rng.random(n) < 0.02).astype(np.int64),
            }
        )
        exact = exact_entropies(store)
        epsilon = 0.1
        for seed in range(5):
            result = swope_filter_entropy(store, 2.0, epsilon=epsilon, seed=seed)
            assert check_filter_guarantee(result, exact, epsilon) == []

    def test_band_attribute_membership_is_free(self):
        # An attribute whose entropy sits inside ((1-eps)eta, (1+eps)eta)
        # may legally be returned or dropped; assert no crash and a valid
        # contract either way.
        rng = np.random.default_rng(6)
        store = ColumnStore({"band": rng.integers(0, 4, 2000)})
        exact = exact_entropies(store)
        result = swope_filter_entropy(store, 2.0, epsilon=0.4, seed=0)
        assert check_filter_guarantee(result, exact, 0.4) == []

    def test_constant_columns_excluded_for_positive_threshold(self):
        store = ColumnStore(
            {
                "c": np.zeros(500, dtype=int),
                "v": np.arange(500) % 7,
            }
        )
        result = swope_filter_entropy(store, 0.5, seed=0)
        assert "c" not in result
        assert "v" in result


class TestCustomSchedule:
    def test_single_iteration_schedule_is_exact(self, small_store):
        schedule = SampleSchedule(
            population_size=small_store.num_rows,
            initial_size=small_store.num_rows,
        )
        result = swope_filter_entropy(small_store, 3.0, schedule=schedule, seed=0)
        exact = exact_entropies(small_store)
        expected = {a for a, s in exact.items() if s >= 3.0}
        assert result.answer_set() == expected
        assert result.stats.iterations == 1
