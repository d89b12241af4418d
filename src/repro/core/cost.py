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
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.bounds import entropy_interval
from repro.core.engine import (
    default_failure_probability,
    validate_failure_probability,
)
from repro.core.schedule import SampleSchedule
from repro.data.column_store import ColumnSource
from repro.exceptions import ParameterError

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


def _interval_parts(
    support: int, sample_size: int, population: int, per_bound: float
) -> tuple[float, float]:
    """``(λ, b)`` of one entropy bound — data-independent Lemma 3 terms."""
    iv = entropy_interval(0.0, support, sample_size, population, per_bound)
    return iv.half_width, iv.width - 2.0 * iv.half_width


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

    # ------------------------------------------------------------------
    def estimate(
        self,
        store: ColumnSource,
        *,
        kind: str,
        score: str,
        epsilon: float,
        candidates: Sequence[str],
        target: str | None = None,
        threshold: float | None = None,
        failure_probability: float | None = None,
        initial_size: int | None = None,
    ) -> CostEstimate:
        """Predict retirement size and cell cost of one query shape.

        The schedule is built exactly as the executor builds it (same
        ``M0``, same doubling, same per-round failure split), so the
        widths evaluated here are the widths the run will actually see.
        """
        if not candidates:
            raise ParameterError("cost estimate needs at least one candidate")
        if failure_probability is None:
            failure_probability = default_failure_probability(store.num_rows)
        validate_failure_probability(failure_probability)
        mutual = score == "mutual_information"
        names = list(candidates)
        all_names = [target, *names] if mutual and target is not None else names
        num_attributes = len(names) + 1 if mutual else len(names)
        population = store.num_rows
        supports = {
            name: store.support_size(name) for name in all_names if name is not None
        }
        schedule = SampleSchedule.for_query(
            population,
            num_attributes,
            failure_probability,
            max(supports.values()),
            initial_size=initial_size,
        )
        per_bound = schedule.per_round_failure(
            failure_probability,
            len(names),
            bounds_per_attribute=3 if mutual else 1,
        )
        target_support = supports.get(target or "", 2)
        predicted_m = 0
        cells = 0
        for name in names:
            retire = self._retirement_size(
                schedule,
                population,
                per_bound,
                kind=kind,
                mutual=mutual,
                support=supports[name],
                target_support=target_support,
                epsilon=epsilon,
                threshold=threshold,
            )
            predicted_m = max(predicted_m, retire)
            cells += (3 if mutual else 1) * retire
        if mutual:
            # The target's marginal is scanned to the query's final size.
            cells += predicted_m
        return CostEstimate(
            predicted_sample_size=predicted_m, predicted_cells=cells
        )

    def _retirement_size(
        self,
        schedule: SampleSchedule,
        population: int,
        per_bound: float,
        *,
        kind: str,
        mutual: bool,
        support: int,
        target_support: int,
        epsilon: float,
        threshold: float | None,
    ) -> int:
        """First schedule size where the guaranteed decision width holds."""
        if kind == "filter" and threshold is not None:
            goal = 2.0 * epsilon * threshold
        elif mutual:
            # MI is bounded by min(H(α_t), H(α)) <= log2 of either support.
            ceiling = math.log2(max(2, min(support, target_support)))
            goal = epsilon * ceiling
        else:
            goal = epsilon * math.log2(max(2, support))
        for size in schedule.sizes:
            if size >= population:
                break
            lam, bias = _interval_parts(support, size, population, per_bound)
            if mutual:
                _, bias_t = _interval_parts(
                    target_support, size, population, per_bound
                )
                _, bias_j = _interval_parts(
                    support * target_support, size, population, per_bound
                )
                width = 6.0 * lam + bias_t + bias + bias_j
            else:
                width = 2.0 * lam + bias
            if width < goal:
                return size
        return population
