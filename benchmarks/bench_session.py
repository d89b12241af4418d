"""Feature benchmark — amortisation across queries on one PlanExecutor.

Beyond the paper: the prefix substrate lets related queries on one
executor share samples. This bench runs the same three-query exploration
once on a shared executor and once as independent ``swope_*`` calls
(each on a fresh sampler), and records the saving.
"""

from __future__ import annotations

import pytest

import _bench_config as cfg
from repro.core.plan import PlanExecutor
from repro.core.swope import (
    swope_filter_entropy,
    swope_top_k_entropy,
)


@pytest.mark.parametrize("dataset_key", cfg.DATASET_KEYS)
@pytest.mark.parametrize("mode", ["session", "fresh"])
def test_session_amortisation(benchmark, dataset_key, mode):
    store = cfg.dataset(dataset_key).store

    def run_session():
        executor = PlanExecutor(store, sequential=True)
        executor.top_k_entropy(4, epsilon=0.1)
        executor.filter_entropy(2.0, epsilon=0.05)
        executor.filter_entropy(1.0, epsilon=0.05)
        return executor.cells_scanned

    def run_fresh():
        total = 0
        total += swope_top_k_entropy(
            store, 4, epsilon=0.1, sequential=True
        ).stats.cells_scanned
        for threshold in (2.0, 1.0):
            total += swope_filter_entropy(
                store, threshold, epsilon=0.05, sequential=True
            ).stats.cells_scanned
        return total

    cells = benchmark.pedantic(
        run_session if mode == "session" else run_fresh, rounds=1, iterations=1
    )
    benchmark.extra_info["cells_scanned"] = int(cells)
    # A shared executor can never exceed one full read per cell for entropy queries.
    if mode == "session":
        assert cells <= store.num_attributes * store.num_rows
