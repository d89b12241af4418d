"""Ablation A4 — candidate pruning on/off (DESIGN.md §4).

Algorithm 1 lines 15–17 prune candidates whose upper bound falls below the
k-th largest lower bound. Pruning never changes the answer (pruned
attributes provably cannot be top-k) but avoids re-scanning doomed
candidates in later iterations. This bench quantifies the saving.
"""

from __future__ import annotations

import pytest

import _bench_config as cfg
from repro.core.swope import swope_top_k_entropy


@pytest.mark.parametrize("dataset_key", cfg.DATASET_KEYS)
@pytest.mark.parametrize("prune", [True, False], ids=["prune-on", "prune-off"])
def test_ablation_pruning(benchmark, dataset_key, prune):
    store = cfg.dataset(dataset_key).store

    def run():
        return swope_top_k_entropy(
            store, 4, epsilon=0.1, sequential=True, prune=prune
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["cells_scanned"] = result.stats.cells_scanned
    benchmark.extra_info["candidates_pruned"] = result.stats.candidates_pruned
    assert len(result.attributes) == 4


@pytest.mark.parametrize("dataset_key", cfg.DATASET_KEYS)
def test_ablation_pruning_same_answer(benchmark, dataset_key):
    """Pruning is a pure optimisation: both variants return the same set."""
    store = cfg.dataset(dataset_key).store

    def run():
        with_prune = swope_top_k_entropy(
            store, 4, epsilon=0.1, sequential=True, prune=True
        )
        without = swope_top_k_entropy(
            store, 4, epsilon=0.1, sequential=True, prune=False
        )
        return with_prune, without

    with_prune, without = benchmark.pedantic(run, rounds=1, iterations=1)
    assert with_prune.attributes == without.attributes
    assert with_prune.stats.cells_scanned <= without.stats.cells_scanned
