"""Tests for query budgets, cancellation, and graceful degradation.

The resilience contract: a truncated run still returns intervals that are
valid Lemma 3 bounds (they contain the exact scores), labels itself
honestly through :class:`GuaranteeStatus`, and — on a shared executor — leaves the
shared sampler in a state later queries can build on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exact import exact_entropies, exact_mutual_informations
from repro.cli import main
from repro.core.budget import CancellationToken, QueryBudget
from repro.core.engine import (
    validate_epsilon,
    validate_failure_probability,
    validate_threshold,
)
from repro.core.results import GuaranteeStatus
from repro.core import (
    PlanExecutor,
    swope_filter_entropy,
    swope_filter_mutual_information,
    swope_top_k_entropy,
    swope_top_k_mutual_information,
)
from repro.data.column_store import ColumnStore
from repro.exceptions import (
    BudgetExceededError,
    ParameterError,
    QueryCancelledError,
)


@pytest.fixture()
def hard_store(rng):
    """Close, high entropies: the adaptive loops need many iterations."""
    n = 20000
    base = rng.integers(0, 64, n)
    return ColumnStore(
        {
            "a": rng.integers(0, 200, n),
            "b": rng.integers(0, 180, n),
            "c": rng.integers(0, 160, n),
            "base": base,
            "follower": np.where(
                rng.random(n) < 0.6, base, rng.integers(0, 64, n)
            ),
        }
    )


TINY_CELLS = QueryBudget(max_cells=1000)


class TestValidators:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_epsilon_rejects_non_finite(self, bad):
        with pytest.raises(ParameterError):
            validate_epsilon(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_threshold_rejects_non_finite(self, bad):
        # float("nan") < 0.0 is False, so the old range check let NaN
        # into the filtering loop where it could never be decided.
        with pytest.raises(ParameterError):
            validate_threshold(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_failure_probability_rejects_non_finite(self, bad):
        with pytest.raises(ParameterError):
            validate_failure_probability(bad)

    def test_valid_values_still_pass(self):
        assert validate_epsilon(0.1) == 0.1
        assert validate_threshold(0.0) == 0.0
        assert validate_failure_probability(0.01) == 0.01


class TestQueryBudget:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_ms": 0},
            {"deadline_ms": -1.0},
            {"deadline_ms": float("nan")},
            {"max_cells": 0},
            {"max_cells": 2.5},
            {"max_sample_size": -10},
        ],
    )
    def test_rejects_bad_limits(self, kwargs):
        with pytest.raises(ParameterError):
            QueryBudget(**kwargs)

    def test_unlimited(self):
        assert QueryBudget().unlimited
        assert not QueryBudget(max_cells=10).unlimited

    def test_precedence_deadline_first(self):
        budget = QueryBudget(deadline_ms=1.0, max_cells=10, max_sample_size=10)
        reason = budget.exhausted(
            elapsed_seconds=1.0, cells_used=100, next_sample_size=100
        )
        assert reason == "deadline"

    def test_cell_budget_then_sample_cap(self):
        budget = QueryBudget(max_cells=10, max_sample_size=10)
        assert (
            budget.exhausted(elapsed_seconds=0, cells_used=10, next_sample_size=5)
            == "cell_budget"
        )
        assert (
            budget.exhausted(elapsed_seconds=0, cells_used=5, next_sample_size=11)
            == "sample_cap"
        )
        assert (
            budget.exhausted(elapsed_seconds=0, cells_used=5, next_sample_size=10)
            is None
        )


class TestCancellationToken:
    def test_cancel_is_sticky_and_first_reason_wins(self):
        token = CancellationToken()
        assert not token.cancelled
        token.cancel("first")
        token.cancel("second")
        assert token.cancelled
        assert token.reason == "first"

    def test_raise_if_cancelled(self):
        token = CancellationToken()
        token.raise_if_cancelled()  # no-op while not cancelled
        token.cancel("shutdown")
        with pytest.raises(QueryCancelledError, match="shutdown"):
            token.raise_if_cancelled()


class TestGuaranteeStatus:
    def test_unknown_reason_rejected(self):
        with pytest.raises(ValueError):
            GuaranteeStatus(
                guarantee_met=False,
                stopping_reason="solar_flare",
                requested_epsilon=0.1,
                achieved_epsilon=0.2,
            )

    def test_met_flag_must_mirror_reason(self):
        with pytest.raises(ValueError):
            GuaranteeStatus(
                guarantee_met=True,
                stopping_reason="deadline",
                requested_epsilon=0.1,
                achieved_epsilon=0.2,
            )


class TestDegradedTopK:
    def test_cell_budget_returns_valid_intervals(self, hard_store):
        exact = exact_entropies(hard_store)
        for seed in range(4):
            result = swope_top_k_entropy(
                hard_store, 2, epsilon=0.01, seed=seed, budget=TINY_CELLS
            )
            status = result.guarantee
            assert status is not None
            assert not status.guarantee_met
            assert status.stopping_reason == "cell_budget"
            assert np.isfinite(status.achieved_epsilon)
            assert status.achieved_epsilon > status.requested_epsilon
            # The degraded answer's intervals are still valid Lemma 3
            # bounds: they contain the exact scores.
            for est in result.estimates:
                assert est.lower <= exact[est.attribute] <= est.upper

    def test_deadline_truncates(self, hard_store):
        result = swope_top_k_entropy(
            hard_store, 2, epsilon=0.001, seed=0,
            budget=QueryBudget(deadline_ms=1e-6),
        )
        assert result.guarantee.stopping_reason == "deadline"
        assert result.stats.iterations == 1  # stopped at the first checkpoint
        assert len(result.attributes) == 2

    def test_sample_cap(self, hard_store):
        result = swope_top_k_entropy(
            hard_store, 2, epsilon=0.001, seed=0,
            budget=QueryBudget(max_sample_size=500),
        )
        assert result.guarantee.stopping_reason == "sample_cap"
        assert result.stats.final_sample_size <= 500

    def test_strict_raises_with_partial(self, hard_store):
        with pytest.raises(BudgetExceededError) as excinfo:
            swope_top_k_entropy(
                hard_store, 2, epsilon=0.01, seed=0,
                budget=TINY_CELLS, strict=True,
            )
        err = excinfo.value
        assert err.stopping_reason == "cell_budget"
        assert err.partial is not None
        assert err.partial.guarantee.stopping_reason == "cell_budget"

    def test_cancellation(self, hard_store):
        token = CancellationToken()
        token.cancel()
        result = swope_top_k_entropy(
            hard_store, 2, epsilon=0.01, seed=0, cancellation=token
        )
        assert result.guarantee.stopping_reason == "cancelled"
        with pytest.raises(QueryCancelledError):
            swope_top_k_entropy(
                hard_store, 2, epsilon=0.01, seed=0,
                cancellation=token, strict=True,
            )

    def test_mi_topk_budgeted(self, hard_store):
        exact = exact_mutual_informations(hard_store, "base")
        result = swope_top_k_mutual_information(
            hard_store, "base", 2, epsilon=0.05, seed=0,
            budget=QueryBudget(max_cells=3000),
        )
        assert not result.guarantee.guarantee_met
        for est in result.estimates:
            assert est.lower <= exact[est.attribute] <= est.upper

    def test_unbudgeted_matches_unlimited_budget(self, hard_store):
        # The per-iteration checks must not perturb an un-truncated run.
        plain = swope_top_k_entropy(hard_store, 2, epsilon=0.1, seed=5)
        huge = swope_top_k_entropy(
            hard_store, 2, epsilon=0.1, seed=5,
            budget=QueryBudget(max_cells=10**12),
        )
        assert plain.guarantee.stopping_reason == "converged"
        assert plain.guarantee.guarantee_met
        assert plain.guarantee.achieved_epsilon <= 0.1
        assert huge.attributes == plain.attributes
        assert huge.estimates == plain.estimates
        assert huge.stats.final_sample_size == plain.stats.final_sample_size


class TestDegradedFilter:
    def test_entropy_filter_converged_guarantee(self, hard_store):
        result = swope_filter_entropy(hard_store, 5.0, epsilon=0.1, seed=0)
        assert result.guarantee.stopping_reason == "converged"
        assert result.guarantee.undecided == ()

    def test_mi_filter_budget_records_undecided(self, hard_store):
        exact = exact_mutual_informations(hard_store, "base")
        result = swope_filter_mutual_information(
            hard_store, "base", 0.3, epsilon=0.05, seed=0,
            budget=QueryBudget(max_cells=2000),
        )
        status = result.guarantee
        assert not status.guarantee_met
        assert status.stopping_reason == "cell_budget"
        assert status.undecided  # something was cut off mid-decision
        assert np.isfinite(status.achieved_epsilon)
        assert status.achieved_epsilon >= status.requested_epsilon
        # Every candidate got a best-effort estimate with valid bounds.
        assert set(result.estimates) == {"a", "b", "c", "follower"}
        for name, est in result.estimates.items():
            assert est.lower <= exact[name] <= est.upper
        # Undecided attributes were resolved by midpoint.
        for name in status.undecided:
            est = result.estimates[name]
            assert (name in result) == (est.estimate >= 0.3)

    def test_filter_strict_raises(self, hard_store):
        with pytest.raises(BudgetExceededError) as excinfo:
            swope_filter_mutual_information(
                hard_store, "base", 0.3, epsilon=0.05, seed=0,
                budget=QueryBudget(max_cells=2000), strict=True,
            )
        assert excinfo.value.partial.guarantee.undecided


class TestSessionResilience:
    def test_session_default_budget_applies(self, hard_store):
        executor = PlanExecutor(hard_store, seed=0, budget=TINY_CELLS)
        assert executor.default_budget is TINY_CELLS
        result = executor.top_k_entropy(2, epsilon=0.01)
        assert result.guarantee.stopping_reason == "cell_budget"

    def test_per_query_override_lifts_budget(self, hard_store):
        executor = PlanExecutor(hard_store, seed=0, budget=TINY_CELLS)
        result = executor.top_k_entropy(2, epsilon=0.1, budget=None)
        assert result.guarantee.stopping_reason == "converged"

    def test_ratchet_monotone_after_truncation(self, hard_store):
        executor = PlanExecutor(hard_store, seed=0)
        floors = [executor.sample_floor]
        truncated = executor.top_k_entropy(2, epsilon=0.01, budget=TINY_CELLS)
        floors.append(executor.sample_floor)
        assert floors[-1] == truncated.stats.final_sample_size
        executor.filter_entropy(5.0, epsilon=0.1)
        floors.append(executor.sample_floor)
        executor.top_k_entropy(1, epsilon=0.5)
        floors.append(executor.sample_floor)
        assert floors == sorted(floors)

    def test_queries_work_after_truncated_query(self, hard_store):
        # The truncated query grew shared prefix counters; later queries
        # must start at or above that prefix, not try to shrink it.
        executor = PlanExecutor(hard_store, seed=0)
        executor.top_k_entropy(2, epsilon=0.01, budget=TINY_CELLS)
        result = executor.top_k_entropy(2, epsilon=0.3)
        assert result.guarantee.stopping_reason == "converged"
        exact = exact_entropies(hard_store)
        for est in result.estimates:
            assert est.lower <= exact[est.attribute] <= est.upper

    def test_strict_failure_still_ratchets_floor(self, hard_store):
        executor = PlanExecutor(hard_store, seed=0)
        with pytest.raises(BudgetExceededError):
            executor.top_k_entropy(2, epsilon=0.01, budget=TINY_CELLS, strict=True)
        assert executor.sample_floor > 0
        assert executor.marginal_cells() > 0
        # And the session is still usable.
        result = executor.top_k_entropy(2, epsilon=0.3)
        assert result.guarantee.guarantee_met


class TestCliBudgets:
    def test_budgeted_query_reports_guarantee(self, capsys):
        code = main(
            ["query", "topk-entropy", "--dataset", "cdc", "--scale", "0.05",
             "--epsilon", "0.01", "--max-cells", "1000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "guarantee: NOT met (cell_budget)" in out

    def test_unbudgeted_query_reports_converged(self, capsys):
        code = main(
            ["query", "topk-entropy", "--dataset", "cdc", "--scale", "0.01"]
        )
        assert code == 0
        assert "guarantee: met (converged)" in capsys.readouterr().out

    def test_strict_budget_exit_code(self, capsys):
        code = main(
            ["query", "topk-entropy", "--dataset", "cdc", "--scale", "0.05",
             "--epsilon", "0.01", "--max-cells", "1000", "--strict"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
