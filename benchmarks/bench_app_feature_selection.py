"""Application benchmark — feature selection cost, SWOPE vs exact engine.

Quantifies the paper's headline motivation end to end: how much does the
approximate MI machinery save inside a real selector? Runs Max-Relevance
and mRMR over a registry dataset with both engines and records the
cells-scanned gap (answers must agree up to planted duplicates).
"""

from __future__ import annotations

import pytest

import _bench_config as cfg
from repro.applications.feature_selection import mrmr_select, top_relevance_select

_SELECTORS = {
    "top_relevance": lambda store, label, engine: top_relevance_select(
        store, label, 5, engine=engine, seed=0
    ),
    "mrmr": lambda store, label, engine: mrmr_select(
        store, label, 5, engine=engine, seed=0
    ),
}


@pytest.mark.parametrize("dataset_key", cfg.DATASET_KEYS)
@pytest.mark.parametrize("engine", ["swope", "exact"])
@pytest.mark.parametrize("selector", sorted(_SELECTORS))
def test_app_feature_selection(benchmark, dataset_key, engine, selector):
    dataset = cfg.dataset(dataset_key)
    label = dataset.mi_targets[0]
    run = _SELECTORS[selector]

    result = benchmark.pedantic(
        lambda: run(dataset.store, label, engine), rounds=1, iterations=1
    )
    assert len(result.features) == 5
    benchmark.extra_info["cells_scanned"] = result.cells_scanned
    benchmark.extra_info["features"] = ",".join(result.features)


@pytest.mark.parametrize("dataset_key", cfg.DATASET_KEYS)
@pytest.mark.parametrize("selector", sorted(_SELECTORS))
def test_app_engines_agree(benchmark, dataset_key, selector):
    """Both engines must pick the same feature set on the planted data."""
    dataset = cfg.dataset(dataset_key)
    label = dataset.mi_targets[0]
    run = _SELECTORS[selector]

    def both():
        return (
            run(dataset.store, label, "swope"),
            run(dataset.store, label, "exact"),
        )

    swope, exact = benchmark.pedantic(both, rounds=1, iterations=1)
    assert set(swope.features) == set(exact.features)
    benchmark.extra_info["saving_x"] = round(
        exact.cells_scanned / max(1, swope.cells_scanned), 2
    )
