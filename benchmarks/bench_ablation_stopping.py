"""Ablation A2 — stopping rule, everything else held fixed (DESIGN.md §4).

This is the paper's core contribution isolated: the SWOPE relative-error
stopping rule versus the KDD'19 exact stopping rule, on the *same*
substrate (same bounds, same doubling schedule, same sequential sampler).
Any cost difference here is attributable purely to the stopping rules.
"""

from __future__ import annotations

import pytest

import _bench_config as cfg
from repro.baselines import entropy_filter, entropy_rank_top_k
from repro.core.swope import (
    swope_filter_entropy,
    swope_top_k_entropy,
)


@pytest.mark.parametrize("dataset_key", cfg.DATASET_KEYS)
@pytest.mark.parametrize("rule", ["swope-approximate", "kdd19-exact"])
def test_ablation_stopping_topk(benchmark, dataset_key, rule):
    store = cfg.dataset(dataset_key).store

    def run():
        if rule == "swope-approximate":
            return swope_top_k_entropy(store, 4, epsilon=0.1, sequential=True)
        return entropy_rank_top_k(store, 4, sequential=True)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["cells_scanned"] = result.stats.cells_scanned
    benchmark.extra_info["final_sample"] = result.stats.final_sample_size


@pytest.mark.parametrize("dataset_key", cfg.DATASET_KEYS)
@pytest.mark.parametrize("rule", ["swope-approximate", "kdd19-exact"])
def test_ablation_stopping_filter(benchmark, dataset_key, rule):
    store = cfg.dataset(dataset_key).store

    def run():
        if rule == "swope-approximate":
            return swope_filter_entropy(
                store, 2.0, epsilon=0.05, sequential=True
            )
        return entropy_filter(store, 2.0, sequential=True)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["cells_scanned"] = result.stats.cells_scanned
    benchmark.extra_info["answer_size"] = len(result.attributes)
