"""Ablation A1 — sample-growth schedule (DESIGN.md §4).

The paper doubles the sample each iteration. This ablation sweeps the
geometric growth factor (1.5 / 2 / 4) and the KDD'19-style linear batch
schedule on the entropy top-k query, measuring the cost trade-off: a
smaller factor stops closer to the minimal sufficient sample but pays for
more iterations; linear batching degenerates to O(N/M0) iterations.
"""

from __future__ import annotations

import pytest

import _bench_config as cfg
from repro.core.schedule import SampleSchedule, initial_sample_size
from repro.core.swope import swope_top_k_entropy


def _schedule(store, mode, factor):
    m0 = initial_sample_size(
        store.num_rows, store.num_attributes, 1.0 / store.num_rows,
        store.max_support_size(),
    )
    return SampleSchedule.for_query(
        store.num_rows, store.num_attributes, 1.0 / store.num_rows,
        store.max_support_size(),
        growth_factor=factor, mode=mode, initial_size=m0,
    )


@pytest.mark.parametrize("dataset_key", cfg.DATASET_KEYS)
@pytest.mark.parametrize(
    "mode,factor",
    [("geometric", 1.5), ("geometric", 2.0), ("geometric", 4.0), ("linear", 2.0)],
    ids=["geo1.5", "geo2.0-paper", "geo4.0", "linear"],
)
def test_ablation_schedule(benchmark, dataset_key, mode, factor):
    store = cfg.dataset(dataset_key).store
    schedule = _schedule(store, mode, factor)

    def run():
        return swope_top_k_entropy(
            store, 4, epsilon=0.1, schedule=schedule, seed=0
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["cells_scanned"] = result.stats.cells_scanned
    benchmark.extra_info["iterations"] = result.stats.iterations
    benchmark.extra_info["final_sample"] = result.stats.final_sample_size
    assert len(result.attributes) == 4
