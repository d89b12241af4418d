"""Tests for one-query runs on a PlanExecutor (shared-sampler amortisation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exact import exact_entropies, exact_mutual_informations
from repro.core.plan import PlanExecutor
from repro.data.column_store import ColumnStore
from repro.data.sampling import PrefixSampler
from repro.experiments.accuracy import (
    check_filter_guarantee,
    check_top_k_guarantee,
)


@pytest.fixture()
def store(rng):
    n = 8000
    base = rng.integers(0, 16, n)
    return ColumnStore(
        {
            "wide": rng.integers(0, 120, n),
            "medium": rng.integers(0, 30, n),
            "base": base,
            "follower": np.where(rng.random(n) < 0.7, base, rng.integers(0, 16, n)),
            "narrow": rng.integers(0, 3, n),
        }
    )


class TestAmortisation:
    def test_repeated_query_is_free(self, store):
        executor = PlanExecutor(store, seed=0)
        first = executor.top_k_entropy(2, epsilon=0.1)
        second = executor.top_k_entropy(2, epsilon=0.1)
        assert second.attributes == first.attributes
        assert executor.marginal_cells() == 0

    def test_floor_ratchets_monotonically(self, store):
        executor = PlanExecutor(store, seed=0)
        floors = [executor.sample_floor]
        executor.top_k_entropy(1, epsilon=0.5)
        floors.append(executor.sample_floor)
        executor.top_k_entropy(1, epsilon=0.05)
        floors.append(executor.sample_floor)
        executor.top_k_entropy(1, epsilon=0.5)  # easier query cannot lower it
        floors.append(executor.sample_floor)
        assert floors == sorted(floors)
        assert floors[-1] == floors[-2]

    def test_total_marginal_cost_bounded_by_full_scan(self, store):
        executor = PlanExecutor(store, seed=0)
        for threshold in (4.0, 2.0, 1.0, 0.5):
            executor.filter_entropy(threshold, epsilon=0.05)
        # Entropy queries can never read more than every cell once.
        assert executor.cells_scanned <= store.num_attributes * store.num_rows
        assert executor.queries_run == 4

    def test_cheaper_than_fresh_samplers(self, store):
        executor = PlanExecutor(store, seed=0)
        executor.top_k_entropy(2, epsilon=0.05)
        executor.filter_entropy(2.0, epsilon=0.05)
        executor.top_k_entropy(4, epsilon=0.05)
        shared_total = executor.cells_scanned

        fresh_total = 0
        from repro.core.swope import swope_filter_entropy
        from repro.core.swope import swope_top_k_entropy

        for run in (
            lambda: swope_top_k_entropy(store, 2, epsilon=0.05, seed=0),
            lambda: swope_filter_entropy(store, 2.0, epsilon=0.05, seed=0),
            lambda: swope_top_k_entropy(store, 4, epsilon=0.05, seed=0),
        ):
            fresh_total += run().stats.cells_scanned
        assert shared_total < fresh_total


class TestGuaranteesStillHold:
    def test_topk_contract_across_session(self, store):
        exact = exact_entropies(store)
        executor = PlanExecutor(store, seed=1)
        for k, epsilon in ((1, 0.3), (2, 0.1), (3, 0.5)):
            result = executor.top_k_entropy(k, epsilon=epsilon)
            assert check_top_k_guarantee(result, exact, epsilon) == []

    def test_filter_contract_across_session(self, store):
        exact = exact_entropies(store)
        executor = PlanExecutor(store, seed=1)
        for threshold in (4.0, 2.0, 1.0):
            result = executor.filter_entropy(threshold, epsilon=0.1)
            assert check_filter_guarantee(result, exact, 0.1) == []

    def test_mi_queries_in_session(self, store):
        exact = exact_mutual_informations(store, "base")
        executor = PlanExecutor(store, seed=1)
        top = executor.top_k_mutual_information("base", 1, epsilon=0.5)
        assert check_top_k_guarantee(top, exact, 0.5) == []
        kept = executor.filter_mutual_information("base", 0.5, epsilon=0.5)
        assert check_filter_guarantee(kept, exact, 0.5) == []
        assert "follower" in top.attributes

    def test_mixed_entropy_and_mi(self, store):
        executor = PlanExecutor(store, seed=2)
        executor.top_k_entropy(2, epsilon=0.1)
        after_entropy = executor.cells_scanned
        executor.top_k_mutual_information("base", 1, epsilon=0.5)
        # MI adds joint-count work, so the meter must grow...
        assert executor.cells_scanned > after_entropy
        # ...but the marginal counters are shared with the entropy query.
        assert executor.queries_run == 2


class TestSequentialSession:
    def test_sequential_mode(self, store):
        executor = PlanExecutor(store, sequential=True)
        result = executor.top_k_entropy(1, epsilon=0.2)
        assert result.attributes == ["wide"]
