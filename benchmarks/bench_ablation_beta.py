"""Ablation A5 — tight vs loose sensitivity β inside the λ bound.

The paper's algorithms use the tight closed-form swap sensitivity
``β = log2(M/(M−1)) + log2(M−1)/M``; its *analysis* upper-bounds it by
``2 log2(M)/M`` (a factor ≈ 2 looser for large M). Since the stopping
sample size scales with β², the loose form roughly doubles λ and pushes
stopping one to two doublings later. This bench runs the same top-k query
with both forms and quantifies the difference.
"""

from __future__ import annotations

import pytest

import _bench_config as cfg
from repro.core.engine import (
    EntropyScoreProvider,
    adaptive_top_k,
    default_failure_probability,
)
from repro.core.schedule import SampleSchedule
from repro.data.sampling import PrefixSampler


@pytest.mark.parametrize("dataset_key", cfg.DATASET_KEYS)
@pytest.mark.parametrize("beta_mode", ["tight", "loose"])
def test_ablation_beta_sensitivity(benchmark, dataset_key, beta_mode):
    store = cfg.dataset(dataset_key).store
    names = list(store.attributes)
    failure = default_failure_probability(store.num_rows)
    schedule = SampleSchedule.for_query(
        store.num_rows, len(names), failure, store.max_support_size()
    )

    def run():
        sampler = PrefixSampler(store, seed=0)
        provider = EntropyScoreProvider(
            sampler,
            schedule.per_round_failure(failure, len(names)),
            beta_mode=beta_mode,
        )
        return adaptive_top_k(provider, sampler, names, 4, 0.1, schedule)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["cells_scanned"] = result.stats.cells_scanned
    benchmark.extra_info["final_sample"] = result.stats.final_sample_size
    assert len(result.attributes) == 4
