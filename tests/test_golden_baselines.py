"""Bit-identity regression test for the exact-stopping baselines.

EntropyRank/EntropyFilter and their MI variants run the engine's adaptive
loops with the exact stopping rule. Every deterministic field of their
results — answer order, ``(lower, upper, estimate)``, cells, iterations,
final sample size, pruning count and the guarantee record — over a small
grid of stores, seeds, sequential and explicit-schedule runs and
budget-truncated runs is pinned in
``tests/golden/baselines.json``, and reproduced with every permutation
block gathered in row order as well. Floats are compared exactly: any change
to an answer, a bound or a cell count fails here. Regenerate after an
intentional change with::

    PYTHONPATH=src python -m pytest tests/test_golden_baselines.py --update-golden
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any

import pytest

from repro.baselines import (
    entropy_filter,
    entropy_filter_mutual_information,
    entropy_rank_top_k,
    entropy_rank_top_k_mutual_information,
)
from repro.core.budget import QueryBudget
from repro.core.results import FilterResult, TopKResult
from repro.core.schedule import SampleSchedule
from repro.data import sampling
from repro.data.column_store import ColumnStore
from repro.synth.datasets import load_dataset

GOLDEN_PATH = Path(__file__).parent / "golden" / "baselines.json"
SEEDS = (0, 1, 2)
TRUNCATED = QueryBudget(max_cells=20_000)


def _result_record(result: TopKResult | FilterResult) -> dict[str, Any]:
    estimates = (
        result.estimates
        if isinstance(result, TopKResult)
        else list(result.estimates.values())
    )
    stats = result.stats
    return {
        "attributes": list(result.attributes),
        "estimates": [
            [e.attribute, e.estimate, e.lower, e.upper, e.sample_size]
            for e in estimates
        ],
        "cells_scanned": stats.cells_scanned,
        "cells_saved": stats.cells_saved,
        "iterations": stats.iterations,
        "final_sample_size": stats.final_sample_size,
        "population_size": stats.population_size,
        "candidates_pruned": stats.candidates_pruned,
        "guarantee": (
            None
            if result.guarantee is None
            else {
                **dataclasses.asdict(result.guarantee),
                "undecided": list(result.guarantee.undecided),
            }
        ),
    }


def _cases(
    cdc: ColumnStore, cdc_target: str, small: ColumnStore, correlated: ColumnStore
) -> dict[str, Any]:
    """Case name -> zero-argument callable running one baseline query."""
    cases: dict[str, Any] = {}
    for seed in SEEDS:
        cases[f"cdc/rank/k3/seed{seed}"] = lambda s=seed: entropy_rank_top_k(
            cdc, 3, seed=s
        )
        cases[f"cdc/filter/eta2.5/seed{seed}"] = lambda s=seed: entropy_filter(
            cdc, 2.5, seed=s
        )
        cases[f"cdc/mi_rank/k3/seed{seed}"] = (
            lambda s=seed: entropy_rank_top_k_mutual_information(
                cdc, cdc_target, 3, seed=s
            )
        )
        cases[f"cdc/mi_filter/eta0.5/seed{seed}"] = (
            lambda s=seed: entropy_filter_mutual_information(
                cdc, cdc_target, 0.5, seed=s
            )
        )
        cases[f"small/rank/k2/seed{seed}"] = lambda s=seed: entropy_rank_top_k(
            small, 2, seed=s
        )
        cases[f"small/rank/k2/noprune/seed{seed}"] = (
            lambda s=seed: entropy_rank_top_k(small, 2, seed=s, prune=False)
        )
        cases[f"small/filter/eta3.0/seed{seed}"] = lambda s=seed: entropy_filter(
            small, 3.0, seed=s
        )
        cases[f"correlated/mi_rank/k1/seed{seed}"] = (
            lambda s=seed: entropy_rank_top_k_mutual_information(
                correlated, "target", 1, seed=s
            )
        )
        cases[f"correlated/mi_filter/eta1.0/seed{seed}"] = (
            lambda s=seed: entropy_filter_mutual_information(
                correlated, "target", 1.0, seed=s
            )
        )
    # The figure harness runs the baselines on the physical row order.
    cases["cdc/rank/k3/sequential"] = lambda: entropy_rank_top_k(
        cdc, 3, sequential=True
    )
    cases["cdc/filter/eta2.5/sequential"] = lambda: entropy_filter(
        cdc, 2.5, sequential=True
    )
    cases["cdc/mi_rank/k3/sequential"] = (
        lambda: entropy_rank_top_k_mutual_information(
            cdc, cdc_target, 3, sequential=True
        )
    )
    cases["cdc/mi_filter/eta0.5/sequential"] = (
        lambda: entropy_filter_mutual_information(
            cdc, cdc_target, 0.5, sequential=True
        )
    )
    # A caller-supplied schedule replaces the paper M0 and doubling.
    cases["small/rank/k2/schedule"] = lambda: entropy_rank_top_k(
        small,
        2,
        seed=0,
        schedule=SampleSchedule(
            population_size=small.num_rows, initial_size=64, growth_factor=1.5
        ),
    )
    # One budget-truncated run per loop and score: the best-effort answer
    # and its guarantee record (requested_epsilon=0.0) are pinned too.
    cases["cdc/rank/k3/max_cells"] = lambda: entropy_rank_top_k(
        cdc, 3, seed=0, budget=TRUNCATED
    )
    cases["cdc/filter/eta2.5/max_cells"] = lambda: entropy_filter(
        cdc, 2.5, seed=0, budget=TRUNCATED
    )
    cases["cdc/mi_rank/k3/max_cells"] = (
        lambda: entropy_rank_top_k_mutual_information(
            cdc, cdc_target, 3, seed=0, budget=TRUNCATED
        )
    )
    cases["cdc/mi_filter/eta0.5/max_cells"] = (
        lambda: entropy_filter_mutual_information(
            cdc, cdc_target, 0.5, seed=0, budget=TRUNCATED
        )
    )
    # Truncated top-k answers whose last-by-lower-bound member does not
    # hold the smallest upper bound: pins which Ū_k the achieved ε uses.
    cases["cdc/rank/k5/max_cells"] = lambda: entropy_rank_top_k(
        cdc, 5, seed=0, budget=QueryBudget(max_cells=5_000)
    )
    cases["cdc/mi_rank/k5/max_cells"] = (
        lambda: entropy_rank_top_k_mutual_information(
            cdc, cdc_target, 5, seed=0, budget=TRUNCATED
        )
    )
    return cases


@pytest.fixture(scope="module")
def cdc():
    return load_dataset("cdc", scale=0.05)


def test_baselines_match_golden(
    cdc, small_store: ColumnStore, correlated_store: ColumnStore, update_golden: bool
) -> None:
    cases = _cases(cdc.store, cdc.mi_targets[0], small_store, correlated_store)
    records = {name: _result_record(run()) for name, run in cases.items()}
    if update_golden:
        # One case per line, so a drift diff names the case it touches.
        lines = [
            f"{json.dumps(name)}: {json.dumps(records[name], sort_keys=True)}"
            for name in sorted(records)
        ]
        GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        return
    assert GOLDEN_PATH.exists(), (
        f"golden file {GOLDEN_PATH} missing; generate with --update-golden"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(records) == sorted(golden)
    # JSON round-trips binary64 floats exactly, so == is bit-identity.
    for name in sorted(golden):
        assert records[name] == golden[name], f"baseline case {name} drifted"


def test_sorted_blocks_baselines_match_golden(
    cdc, small_store: ColumnStore, correlated_store: ColumnStore, monkeypatch
) -> None:
    # Every golden store is far below the size from which the sampler
    # gathers each block in row order; forcing the sorted path on them
    # must leave every record unchanged.
    monkeypatch.setattr(sampling, "_SORT_BLOCKS_FROM", 0)
    cases = _cases(cdc.store, cdc.mi_targets[0], small_store, correlated_store)
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(cases) == sorted(golden)
    for name in sorted(golden):
        assert _result_record(cases[name]()) == golden[name], (
            f"baseline case {name} drifted with sorted blocks"
        )


def test_golden_grid_exercises_truncation_and_convergence() -> None:
    golden = json.loads(GOLDEN_PATH.read_text())
    truncated = [g for name, g in golden.items() if name.endswith("max_cells")]
    assert len(truncated) == 6
    for record in truncated:
        assert record["guarantee"]["guarantee_met"] is False
        assert record["guarantee"]["stopping_reason"] == "cell_budget"
        assert record["guarantee"]["requested_epsilon"] == 0.0
    converged = [g for name, g in golden.items() if not name.endswith("max_cells")]
    assert all(record["guarantee"] is None for record in converged)
    assert any(record["iterations"] >= 3 for record in converged)
