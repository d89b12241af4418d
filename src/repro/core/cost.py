"""Analytic per-query cost estimates.

The planner's scheduling decision — which query of a batch to run first —
needs a *deterministic* prediction of each query's cost, because a
cache-warm rerun must schedule exactly like the cold run it reuses (the
bit-identity gate of ``docs/PLANNER.md``). This module provides that
prediction without looking at the data:

* Lemma 3's concentration half-width ``λ(M)`` and bias allowance
  ``b(α, M)`` are pure functions of the sample size, the population
  size, the per-bound failure probability, and the attribute's support
  size — no counts involved. :class:`CostModel` evaluates them over a
  query's actual :class:`~repro.core.schedule.SampleSchedule` to find
  the first sample size at which the paper's *guaranteed* decision rule
  would fire (filter rule 1: ``width < 2εη``; for top-k a scale proxy
  ``width <= ε·ĥ`` with ``ĥ`` the score's data-independent ceiling),
  and charges the per-row cell cost of the query shape (1 cell/row for
  an entropy candidate, 3 for an MI candidate: one marginal plus a
  two-cell joint).

The predictions are heuristics, not guarantees: the true retirement
size depends on the data (an attribute near a filter threshold retires
by rule 1, one far from it retires earlier by rule 2/3). They only need
to *rank* queries consistently; :func:`repro.core.plan.plan_queries`
orders a batch cheapest-first so later, more expensive queries join the
shared scan at a frontier the cheap ones already paid for.

Planning runs on every plan, so it has to cost less than it saves.
:meth:`CostModel.estimate_batch` estimates a whole batch against one
memo: ``λ`` once per ``(size, p′)``, ``b`` once per ``(support, size)``
and each retirement size once per distinct ``(schedule, p′, support,
goal)``. The memo lives for that one call and nowhere else, so every
``plan_queries`` — in a fresh process too — pays the same cost.

The widths are summed exactly as :func:`~repro.core.bounds.entropy_interval`
would report them, so the predictions are bit-identical to a
per-candidate walk of the scalar interval: the bias term is read back as
``(2λ + b) − 2λ`` (the interval's ``width − 2·half_width``), not as
``b``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.bounds import bias_bound, permutation_half_width
from repro.core.engine import (
    default_failure_probability,
    validate_failure_probability,
)
from repro.core.schedule import SampleSchedule
from repro.data.column_store import ColumnSource
from repro.exceptions import ParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.plan import QuerySpec

__all__ = ["CostEstimate", "CostModel"]


@dataclass(frozen=True)
class CostEstimate:
    """Predicted cost of one query over a concrete schedule.

    ``predicted_sample_size`` is the schedule size at which the model
    expects the query to retire; ``predicted_cells`` is the cell cost of
    scanning every candidate (at its per-row rate) up to that size.
    Both are deterministic functions of the query shape and the store's
    *schema* (row count and support sizes), never of its values.
    """

    predicted_sample_size: int
    predicted_cells: int


@dataclass(frozen=True)
class CostModel:
    """Deterministic per-query cost predictor for the planner.

    Purely analytic: a function of the store schema and the query shape
    only, so every session orders a plan the same way.
    """

    @property
    def label(self) -> str:
        """``"analytic"`` — the predictor's name, recorded in the plan trace."""
        return "analytic"

    def estimate_batch(
        self,
        store: ColumnSource,
        specs: Sequence[QuerySpec],
        *,
        failure_probability: float | None = None,
    ) -> tuple[CostEstimate, ...]:
        """Predict retirement size and cell cost of every spec of a batch.

        ``specs`` must be resolved (candidates and ``ε`` filled in, as
        :func:`~repro.core.plan.plan_queries` leaves them). Each
        schedule is built exactly as the executor builds it (same
        ``M0``, same doubling, same per-round failure split), so the
        widths evaluated here are the widths the run will actually see.
        """
        population = store.num_rows
        if failure_probability is None:
            failure_probability = default_failure_probability(population)
        validate_failure_probability(failure_probability)

        half_widths: dict[tuple[int, float], float] = {}
        biases: dict[tuple[int, int], float] = {}
        retirements: dict[tuple[object, ...], int] = {}

        def bias_term(support: int, size: int, twice_lam: float) -> float:
            # Read back as the scalar interval's width − 2·half_width.
            bias = biases.get((support, size))
            if bias is None:
                bias = biases[support, size] = bias_bound(support, size, population)
            return (twice_lam + bias) - twice_lam

        def retirement_size(
            sizes: tuple[int, ...],
            per_bound: float,
            support: int,
            target_support: int | None,
            goal: float,
        ) -> int:
            # An entropy candidate's width is 2λ + b; an MI candidate's
            # (target_support set) is 6λ + b_t + b + b_joint.
            for size in sizes:
                if size >= population:
                    break
                lam = half_widths.get((size, per_bound))
                if lam is None:
                    lam = half_widths[size, per_bound] = permutation_half_width(
                        size, population, per_bound
                    )
                twice = 2.0 * lam
                if target_support is None:
                    width = twice + bias_term(support, size, twice)
                else:
                    width = (
                        6.0 * lam
                        + bias_term(target_support, size, twice)
                        + bias_term(support, size, twice)
                        + bias_term(support * target_support, size, twice)
                    )
                if width < goal:
                    return size
            return population

        estimates: list[CostEstimate] = []
        for spec in specs:
            names = spec.attributes
            epsilon = spec.epsilon
            if not names or epsilon is None:
                raise ParameterError(
                    "cost estimate needs a resolved spec: at least one"
                    " candidate and an epsilon"
                )
            # A spec has a target exactly when it scores mutual information.
            target_support = (
                None if spec.target is None else store.support_size(spec.target)
            )
            mutual = target_support is not None
            supports = [store.support_size(name) for name in names]
            schedule = SampleSchedule.for_query(
                population,
                len(names) + 1 if mutual else len(names),
                failure_probability,
                max(
                    supports
                    if target_support is None
                    else [target_support, *supports]
                ),
            )
            per_bound = schedule.per_round_failure(
                failure_probability,
                len(names),
                bounds_per_attribute=3 if mutual else 1,
            )
            predicted_m = 0
            cells = 0
            for support in supports:
                if spec.threshold is not None:
                    goal = 2.0 * epsilon * spec.threshold
                elif target_support is not None:
                    # MI is bounded by min(H(α_t), H(α)) <= log2 of either support.
                    goal = epsilon * math.log2(max(2, min(support, target_support)))
                else:
                    goal = epsilon * math.log2(max(2, support))
                key = (schedule.sizes, per_bound, support, target_support, goal)
                retire = retirements.get(key)
                if retire is None:
                    retire = retirements[key] = retirement_size(*key)
                predicted_m = max(predicted_m, retire)
                cells += (3 if mutual else 1) * retire
            if mutual:
                # The target's marginal is scanned to the query's final size.
                cells += predicted_m
            estimates.append(
                CostEstimate(predicted_sample_size=predicted_m, predicted_cells=cells)
            )
        return tuple(estimates)
