"""Semantic answer reuse: replay recorded interval histories.

A retired SWOPE answer dominates a whole family of weaker requests: a
filter decided against ``η`` can answer any ``η′ >= η`` (every interval
narrow enough to decide against ``η`` by the paper's rule 1 is narrow
enough for ``η′``, since the rule-1 goal ``2εη′`` only widens), and a
top-``k`` answer can answer any ``k′ <= k`` (the ``k′``-th largest upper
bound is no smaller and the answer set's worst width no larger, so the
Definition 5 stopping quantity only improves). This module turns that
dominance into *bit-identical* derived answers by replaying the exact
decision rules of :mod:`repro.core.engine` over the per-iteration
interval history the cache recorded — same sample sizes, same bounds,
same tie-breaks — instead of re-deriving anything from final estimates.

The replay is deliberately *partial*: it serves only when the recorded
history provably contains every interval the derived run would have
consulted. An attribute the cached run retired early by rule 2/3 (its
interval still wide, but far from ``η``) has no later bounds on record;
if the derived threshold ``η′`` still needs them, the replay returns
``None`` and the caller falls back to a fresh execution. A refusal is
always safe — reuse is an optimisation, never an approximation.
A replay starts where the requested run would evaluate first, at its
decision floor (:func:`repro.core.bounds.mi_decision_floor`), and
refuses a history that starts later.

Histories are lists of ``(sample_size, {attribute: (lower, upper,
width, midpoint)})`` — note ``width`` and ``midpoint`` are recorded
explicitly because the paper's stopping quantities use the *unclipped*
interval algebra (``width = 2λ + b``), which is not recoverable from
the clipped ``(lower, upper)`` pair alone.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping, Sequence

from repro.core.results import (
    AttributeEstimate,
    FilterResult,
    GuaranteeStatus,
    RunStats,
    TopKResult,
)

__all__ = ["Bounds", "History", "replay_filter", "replay_top_k"]

#: One recorded interval: ``(lower, upper, width, midpoint)``.
Bounds = tuple[float, float, float, float]

#: One query's per-iteration history: ``(sample_size, {attribute: bounds})``.
History = Sequence[tuple[int, Mapping[str, Bounds]]]


def _estimate(attribute: str, entry: Bounds, sample_size: int) -> AttributeEstimate:
    """The engine's estimate construction, byte for byte."""
    lower, upper, _width, midpoint = entry
    return AttributeEstimate(
        attribute=attribute,
        estimate=max(lower, min(upper, midpoint)),
        lower=lower,
        upper=upper,
        sample_size=sample_size,
    )


def _replay_stats(
    iterations: int, final_sample_size: int, population_size: int, pruned: int = 0
) -> RunStats:
    """Stats of a replayed run: real loop shape, zero work."""
    return RunStats(
        iterations=iterations,
        final_sample_size=final_sample_size,
        population_size=population_size,
        candidates_pruned=pruned,
    )


def _from_first_evaluation(
    history: History, first_evaluated: tuple[int, int]
) -> tuple[int, History] | None:
    """The iterations a derived run skips and the history it consults.

    A derived run evaluates first at its decision floor
    ``first_evaluated = (schedule index, sample size)``; it skips the
    sizes before it, so the replay drops them too. A history that starts
    later than that size lacks intervals the derived run would consult
    (its own run had a higher floor): ``None``, refuse.
    """
    skipped, first_size = first_evaluated
    rest = [entry for entry in history if entry[0] >= first_size]
    if not rest or rest[0][0] != first_size:
        return None
    return skipped, rest


def replay_filter(
    history: History,
    candidates: Sequence[str],
    threshold: float,
    epsilon: float,
    population_size: int,
    *,
    target: str | None = None,
    first_evaluated: tuple[int, int],
) -> FilterResult | None:
    """Replay a cached filter history against a (possibly higher) ``η``.

    Returns the :class:`~repro.core.results.FilterResult` a fresh run at
    ``threshold`` would produce, or ``None`` when the history does not
    cover every interval that run would need (see module docstring).
    ``first_evaluated`` is the fresh run's ``(schedule index, sample
    size)`` of its first evaluation, its decision floor.
    """
    start = _from_first_evaluation(history, first_evaluated)
    if start is None:
        return None
    iterations, history = start
    undecided = list(candidates)
    included: list[str] = []
    estimates: dict[str, AttributeEstimate] = {}
    final_sample_size = 0
    converged = False
    for sample_size, bounds in history:
        iterations += 1
        final_sample_size = sample_size
        still: list[str] = []
        for attribute in undecided:
            entry = bounds.get(attribute)
            if entry is None:
                # The cached run retired this attribute before η′ could
                # decide it — the history is insufficient, refuse.
                return None
            lower, upper, width, midpoint = entry
            decided = True
            if width < 2.0 * epsilon * threshold:
                if midpoint >= threshold:
                    included.append(attribute)
            elif lower >= (1.0 - epsilon) * threshold:
                included.append(attribute)
            elif upper < (1.0 + epsilon) * threshold:
                pass  # excluded
            else:
                decided = False
                still.append(attribute)
            if decided:
                estimates[attribute] = _estimate(attribute, entry, sample_size)
        undecided = still
        if not undecided:
            converged = True
            break
    if not converged:
        return None
    included.sort(key=lambda a: estimates[a].estimate, reverse=True)
    guarantee = GuaranteeStatus(
        guarantee_met=True,
        stopping_reason="converged",
        requested_epsilon=epsilon,
        achieved_epsilon=epsilon,
        undecided=(),
    )
    return FilterResult(
        attributes=included,
        estimates=estimates,
        stats=_replay_stats(iterations, final_sample_size, population_size),
        threshold=threshold,
        target=target,
        guarantee=guarantee,
    )


def replay_top_k(
    history: History,
    candidates: Sequence[str],
    k: int,
    epsilon: float,
    population_size: int,
    *,
    prune: bool = True,
    target: str | None = None,
    first_evaluated: tuple[int, int],
) -> TopKResult | None:
    """Replay a cached top-``k`` history against a (possibly smaller) ``k``.

    Returns the :class:`~repro.core.results.TopKResult` a fresh run at
    ``k`` would produce, or ``None`` when the history does not cover it.
    ``first_evaluated`` is as in :func:`replay_filter`.
    """
    if not candidates:
        return None
    start = _from_first_evaluation(history, first_evaluated)
    if start is None:
        return None
    iterations, history = start
    k_effective = min(k, len(candidates))
    live = list(candidates)
    pruned = 0
    final_sample_size = 0
    answer: list[tuple[str, Bounds]] = []
    converged = False
    last_index = len(history) - 1
    for index, (sample_size, bounds) in enumerate(history):
        iterations += 1
        final_sample_size = sample_size
        if any(attribute not in bounds for attribute in live):
            return None
        by_upper = sorted(live, key=lambda a: bounds[a][1], reverse=True)
        answer = [(a, bounds[a]) for a in by_upper[:k_effective]]
        upper_k = answer[-1][1][1]
        width_max = max(entry[2] for _, entry in answer)
        if upper_k <= 0.0 or (upper_k - width_max) / upper_k >= 1.0 - epsilon:
            converged = True
            break
        if index == last_index:
            # The derived run needs at least one iteration the cached
            # run never executed — refuse rather than extrapolate.
            return None
        if prune and len(live) > k_effective:
            lower_k = heapq.nlargest(
                k_effective, [bounds[a][0] for a in live]
            )[-1]
            survivors = [a for a in live if bounds[a][1] >= lower_k]
            pruned += len(live) - len(survivors)
            live = survivors
    if not converged:
        return None
    upper_k = answer[-1][1][1]
    width_max = max(entry[2] for _, entry in answer)
    achieved = 0.0 if upper_k <= 0.0 else width_max / upper_k
    guarantee = GuaranteeStatus(
        guarantee_met=True,
        stopping_reason="converged",
        requested_epsilon=epsilon,
        achieved_epsilon=achieved,
    )
    return TopKResult(
        attributes=[a for a, _ in answer],
        estimates=[_estimate(a, entry, final_sample_size) for a, entry in answer],
        stats=_replay_stats(
            iterations, final_sample_size, population_size, pruned
        ),
        k=k,
        target=target,
        guarantee=guarantee,
    )
