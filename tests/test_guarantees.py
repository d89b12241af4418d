"""Statistical guarantee tests: the paper's theorems, checked empirically.

These are the heavyweight tests of the suite (moderate dataset sizes, many
repetitions). Each one validates a theorem's *contract* rather than a
point answer:

* Theorem 1/5 — SWOPE top-k answers satisfy Definition 5 across seeds;
* Theorem 3/6 — SWOPE filtering answers satisfy Definition 6 across seeds;
* Theorem 2/4 — the stopping sample size is within a small factor of the
  Lemma 4 prediction, and shrinks as ε or η grows;
* EntropyRank/Filter (the [32] baselines) return exact answers across
  seeds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import entropy_filter, entropy_rank_top_k
from repro.baselines.exact import exact_entropies, exact_mutual_informations
from repro.core.bounds import sample_size_for_width
from repro.core.swope import (
    swope_filter_entropy,
    swope_filter_mutual_information,
    swope_top_k_entropy,
    swope_top_k_mutual_information,
)
from repro.experiments.accuracy import (
    check_filter_guarantee,
    check_top_k_guarantee,
)

N = 20_000
SEEDS = range(8)


@pytest.fixture(scope="module")
def store():
    """A 10-column store with a mix of gaps, ties, and near-thresholds."""
    rng = np.random.default_rng(99)
    columns = {
        "u500_a": rng.integers(0, 500, N),
        "u500_b": rng.integers(0, 500, N),  # near-tie with u500_a
        "u64": rng.integers(0, 64, N),
        "u16": rng.integers(0, 16, N),
        "u8": rng.integers(0, 8, N),
        "u4": rng.integers(0, 4, N),  # entropy ~2.0 (threshold anchor)
        "skew": (rng.random(N) < 0.1).astype(np.int64),
        "const": np.zeros(N, dtype=np.int64),
    }
    base = rng.integers(0, 32, N)
    keep = rng.random(N) < 0.8
    columns["mi_target"] = base
    columns["mi_member"] = np.where(keep, base, rng.integers(0, 32, N))
    from repro.data.column_store import ColumnStore

    return ColumnStore(columns)


class TestTheorem1TopKGuarantee:
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("epsilon", [0.1, 0.3])
    def test_definition5_across_seeds(self, store, k, epsilon):
        exact = exact_entropies(store)
        for seed in SEEDS:
            result = swope_top_k_entropy(store, k, epsilon=epsilon, seed=seed)
            violations = check_top_k_guarantee(result, exact, epsilon)
            assert violations == [], f"seed={seed}: {violations}"


class TestTheorem3FilterGuarantee:
    @pytest.mark.parametrize("threshold", [0.5, 2.0, 5.0])
    @pytest.mark.parametrize("epsilon", [0.05, 0.3])
    def test_definition6_across_seeds(self, store, threshold, epsilon):
        exact = exact_entropies(store)
        for seed in SEEDS:
            result = swope_filter_entropy(
                store, threshold, epsilon=epsilon, seed=seed
            )
            violations = check_filter_guarantee(result, exact, epsilon)
            assert violations == [], f"seed={seed}: {violations}"


class TestTheorem5MIGuarantees:
    def test_mi_topk_definition5(self, store):
        exact = exact_mutual_informations(store, "mi_target")
        epsilon = 0.5
        for seed in SEEDS:
            result = swope_top_k_mutual_information(
                store, "mi_target", 1, epsilon=epsilon, seed=seed
            )
            violations = check_top_k_guarantee(result, exact, epsilon)
            assert violations == [], f"seed={seed}: {violations}"

    def test_mi_filter_definition6(self, store):
        exact = exact_mutual_informations(store, "mi_target")
        epsilon = 0.5
        for threshold in (0.5, 2.0):
            for seed in SEEDS:
                result = swope_filter_mutual_information(
                    store, "mi_target", threshold, epsilon=epsilon, seed=seed
                )
                violations = check_filter_guarantee(result, exact, epsilon)
                assert violations == [], f"seed={seed}: {violations}"


class TestTheorem2SampleComplexity:
    def test_stop_within_factor_two_of_lemma4(self, store):
        """Algorithm 1 doubles M, so it stops at most one doubling past
        the Lemma 4 sufficient size for width ε·H(α*_k)."""
        epsilon = 0.2
        exact = exact_entropies(store)
        h_k = sorted(exact.values(), reverse=True)[0]  # k = 1
        result = swope_top_k_entropy(store, 1, epsilon=epsilon, seed=0)
        u_max = max(store.support_size(a) for a in store.attributes)
        m_star = sample_size_for_width(
            epsilon * h_k, u_max, store.num_rows, 1e-6
        )
        assert result.stats.final_sample_size <= min(store.num_rows, 2 * m_star)

    def test_cost_decreases_with_epsilon(self, store):
        sizes = [
            swope_top_k_entropy(store, 2, epsilon=e, seed=1).stats.final_sample_size
            for e in (0.05, 0.1, 0.3, 0.6)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_filter_cost_decreases_with_epsilon(self, store):
        cells = [
            swope_filter_entropy(store, 2.0, epsilon=e, seed=1).stats.cells_scanned
            for e in (0.05, 0.2, 0.6)
        ]
        assert cells == sorted(cells, reverse=True)

    def test_filter_cost_decreases_with_threshold(self, store):
        # Theorem 4: cost ~ 1/eta^2 (given the same decisions structure).
        low = swope_filter_entropy(store, 0.5, epsilon=0.1, seed=1)
        high = swope_filter_entropy(store, 6.0, epsilon=0.1, seed=1)
        assert high.stats.cells_scanned <= low.stats.cells_scanned


class TestBaselineExactness:
    def test_entropy_rank_always_exact(self, store):
        exact = exact_entropies(store)
        ranking = sorted(exact, key=lambda a: -exact[a])
        for seed in SEEDS:
            result = entropy_rank_top_k(store, 3, seed=seed)
            assert set(result.attributes) == set(ranking[:3]), f"seed={seed}"

    def test_entropy_filter_always_exact(self, store):
        exact = exact_entropies(store)
        for threshold in (1.0, 3.0):
            expected = {a for a, s in exact.items() if s >= threshold}
            for seed in SEEDS:
                result = entropy_filter(store, threshold, seed=seed)
                assert result.answer_set() == expected, f"seed={seed}"


class TestCostOrdering:
    def test_swope_never_costlier_than_exact_scan(self, store):
        exact_cells = store.num_attributes * store.num_rows
        result = swope_top_k_entropy(store, 2, epsilon=0.2, seed=0)
        assert result.stats.cells_scanned <= exact_cells * 1.01

    def test_swope_cheaper_than_entropy_rank_on_near_ties(self, store):
        # u500_a vs u500_b is a near-tie: the exact rule must resolve it,
        # the approximate rule must not.
        swope = swope_top_k_entropy(store, 1, epsilon=0.2, seed=0)
        rank = entropy_rank_top_k(store, 1, seed=0)
        assert swope.stats.cells_scanned < rank.stats.cells_scanned
