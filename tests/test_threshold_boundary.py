"""Stress tests at the paper's u = 1000 preprocessing boundary.

The paper drops attributes whose support exceeds ``u = 1000`` before
running SWOPE, because Lemma 1's bias bound ``b(α)`` grows with the
support ``u_α`` and eventually swamps the confidence interval. This
module pins the three faces of that boundary on the ISSUE's support grid
``u ∈ {998, 1000, 1001, 5000}``:

* the filter itself — kept iff ``u <= 1000``, exactly, on both the
  synthetic census scenario and hand-built stores;
* the analytic reason — ``bias_bound`` is strictly increasing in ``u``
  and vanishes only when the sample is the whole dataset;
* the algorithmic consequence — on the *kept* near-threshold columns
  (``u = 998`` and ``u = 1000``, the worst bias the engine ever accepts)
  the Definition 5/6 guarantees still hold against exact baselines.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines import exact_entropies
from repro.core.bounds import bias_bound
from repro.core.swope import (
    swope_filter_entropy,
    swope_top_k_entropy,
)
from repro.data.column_store import ColumnStore
from repro.data.filters import PAPER_MAX_SUPPORT, partition_by_support
from repro.experiments.accuracy import (
    check_filter_guarantee,
    check_top_k_guarantee,
)
from repro.synth.census import generate_census

SUPPORT_GRID = (998, 1000, 1001, 5000)


def _grid_store(num_rows: int = 4000) -> ColumnStore:
    """One column per grid support, declared support = u exactly."""
    rng = np.random.default_rng(20210614)
    columns = {}
    support_sizes = {}
    for u in SUPPORT_GRID:
        name = f"u{u}"
        columns[name] = rng.integers(0, u, num_rows)
        support_sizes[name] = u
    return ColumnStore(columns, support_sizes=support_sizes)


# ----------------------------------------------------------------------
# The filter at the boundary
# ----------------------------------------------------------------------
def test_paper_cutoff_is_one_thousand() -> None:
    assert PAPER_MAX_SUPPORT == 1000


@pytest.mark.parametrize("u", SUPPORT_GRID)
def test_column_kept_iff_support_at_most_cutoff(u: int) -> None:
    store = _grid_store(num_rows=500)
    kept, dropped = partition_by_support(store)
    name = f"u{u}"
    if u <= PAPER_MAX_SUPPORT:
        assert name in kept.attributes and name not in dropped
    else:
        assert name in dropped and name not in kept.attributes


def test_declared_support_governs_the_filter_not_realized_values() -> None:
    # 100 rows cannot realize 1001 distinct values, but the *declared*
    # domain is what Lemma 1's bias depends on — the filter must use it.
    store = ColumnStore(
        {"sparse": np.arange(100) % 7, "small": np.arange(100) % 5},
        support_sizes={"sparse": PAPER_MAX_SUPPORT + 1, "small": 5},
    )
    kept, dropped = partition_by_support(store)
    assert dropped == ("sparse",)
    assert kept.attributes == ("small",)


def test_threshold_scenario_partitions_on_the_grid() -> None:
    dataset = generate_census("threshold", seed=0, scale=0.01)
    supports = {
        spec.name: spec.support_size for spec in dataset.scenario.columns
    }
    kept, dropped = partition_by_support(dataset.store)
    assert supports["near_low"] == 998 and "near_low" in kept.attributes
    assert supports["at_cut"] == 1000 and "at_cut" in kept.attributes
    assert supports["just_over"] == 1001 and "just_over" in dropped
    assert supports["far_over"] == 5000 and "far_over" in dropped


# ----------------------------------------------------------------------
# Lemma 1: the bias grows with the support
# ----------------------------------------------------------------------
def test_bias_bound_is_strictly_increasing_in_support() -> None:
    population, sample = 100_000, 2_000
    biases = [bias_bound(u, sample, population) for u in SUPPORT_GRID]
    for smaller, larger in zip(biases, biases[1:]):
        assert smaller < larger
    # Closed form spot-check at the cutoff itself (Lemma 1).
    u = PAPER_MAX_SUPPORT
    expected = math.log2(
        1.0 + (u - 1) * (population - sample) / (sample * (population - 1))
    )
    assert bias_bound(u, sample, population) == pytest.approx(expected)


@pytest.mark.parametrize("u", SUPPORT_GRID)
def test_bias_bound_vanishes_on_the_full_scan(u: int) -> None:
    # At M = N every bound collapses; that is what guarantees the
    # adaptive loop terminates even for the worst kept support.
    assert bias_bound(u, 50_000, 50_000) == 0.0


def test_bias_at_cutoff_exceeds_bias_below_it_at_every_sample_size() -> None:
    population = 50_000
    for sample in (500, 2_000, 10_000, 49_999):
        assert bias_bound(998, sample, population) < bias_bound(
            1000, sample, population
        )


# ----------------------------------------------------------------------
# Definition 5/6 on the kept near-threshold columns
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def threshold_dataset():
    # Scale 0.1 -> 5000 rows: enough that u = 1000 columns are genuinely
    # hard (support ~ sample size early on) while staying fast.
    return generate_census("threshold", seed=11, scale=0.1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_top_k_guarantee_holds_with_near_threshold_columns(
    threshold_dataset, seed: int
) -> None:
    kept, _ = partition_by_support(threshold_dataset.store)
    exact = exact_entropies(kept)
    result = swope_top_k_entropy(kept, 3, epsilon=0.1, seed=seed)
    violations = check_top_k_guarantee(result, exact, 0.1)
    assert not violations, violations


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_filter_guarantee_holds_with_near_threshold_columns(
    threshold_dataset, seed: int
) -> None:
    kept, _ = partition_by_support(threshold_dataset.store)
    exact = exact_entropies(kept)
    # Pick the threshold between the near-threshold pair and the mid
    # columns so the boundary columns are exactly the contested ones.
    result = swope_filter_entropy(kept, 6.0, epsilon=0.05, seed=seed)
    violations = check_filter_guarantee(result, exact, 0.05)
    assert not violations, violations


def test_near_threshold_columns_are_live_candidates(threshold_dataset) -> None:
    # The kept u = 998 / u = 1000 columns must actually reach the
    # engine as candidates — dropping them silently would make the
    # guarantee tests above vacuous.
    kept, _ = partition_by_support(threshold_dataset.store)
    assert "near_low" in kept.attributes
    assert "at_cut" in kept.attributes
    exact = exact_entropies(kept)
    result = swope_top_k_entropy(kept, 3, epsilon=0.1, seed=0)
    top3_exact = sorted(exact, key=lambda n: -exact[n])[:3]
    assert set(result.attributes) == set(top3_exact)
