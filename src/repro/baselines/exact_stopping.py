"""EntropyRank and EntropyFilter of Wang & Ding (KDD'19), for entropy and MI.

The state of the art the reproduced paper compares against, and the
Section 6.3 competitors that run the same rules over the Section 4
mutual-information bounds. Each function builds a
:class:`~repro.core.plan.QuerySpec` and answers it with
:func:`~repro.core.plan.run_exact_stopping`: the same sampling
substrate, Lemma 3 bounds, schedule and failure budgets as SWOPE, but
the loop stops only once the answer is provably *exact*.

* Top-k stops when the k-th largest lower bound reaches the (k+1)-th
  largest upper bound, so the sample must grow until the gap Δ between
  the k-th and (k+1)-th scores is resolved: expected cost
  ``O(h log(hN) log²N / Δ²)``.
* Filtering retires an attribute only once its whole interval clears
  the threshold, so scores close to ``η`` keep the loop sampling until
  ``δ = |H(α) - η|`` is resolved: expected cost ``O(h log(hN) log²N / δ²)``.

Parameters mirror the matching :mod:`repro.core.swope` functions, minus
``epsilon`` (these baselines have no approximation knob), ``backend``,
``trace``, ``metrics`` and ``cache``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import cast

import numpy as np

from repro.core.budget import CancellationToken, QueryBudget
from repro.core.plan import QuerySpec, run_exact_stopping
from repro.core.results import FilterResult, TopKResult
from repro.core.schedule import SampleSchedule
from repro.data.column_store import ColumnSource

__all__ = [
    "entropy_filter",
    "entropy_filter_mutual_information",
    "entropy_rank_top_k",
    "entropy_rank_top_k_mutual_information",
]


def entropy_rank_top_k(
    store: ColumnSource,
    k: int,
    *,
    failure_probability: float | None = None,
    seed: int | np.random.Generator | None = None,
    attributes: Sequence[str] | None = None,
    schedule: SampleSchedule | None = None,
    layout_seed: int | None = None,
    prune: bool = True,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
) -> TopKResult:
    """EntropyRank: answer an *exact* entropy top-k query by adaptive sampling."""
    spec = QuerySpec(
        kind="top_k", score="entropy", k=k,
        attributes=attributes, prune=prune,
    )
    return cast(TopKResult, run_exact_stopping(
        store, spec, seed=seed, layout_seed=layout_seed,
        failure_probability=failure_probability, schedule=schedule,
        budget=budget, cancellation=cancellation, strict=strict,
    ))


def entropy_filter(
    store: ColumnSource,
    threshold: float,
    *,
    failure_probability: float | None = None,
    seed: int | np.random.Generator | None = None,
    attributes: Sequence[str] | None = None,
    schedule: SampleSchedule | None = None,
    layout_seed: int | None = None,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
) -> FilterResult:
    """EntropyFilter: answer an *exact* entropy filtering query by sampling."""
    spec = QuerySpec(
        kind="filter", score="entropy", threshold=threshold,
        attributes=attributes,
    )
    return cast(FilterResult, run_exact_stopping(
        store, spec, seed=seed, layout_seed=layout_seed,
        failure_probability=failure_probability, schedule=schedule,
        budget=budget, cancellation=cancellation, strict=strict,
    ))


def entropy_rank_top_k_mutual_information(
    store: ColumnSource,
    target: str,
    k: int,
    *,
    failure_probability: float | None = None,
    seed: int | np.random.Generator | None = None,
    candidates: Sequence[str] | None = None,
    schedule: SampleSchedule | None = None,
    layout_seed: int | None = None,
    prune: bool = True,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
) -> TopKResult:
    """Answer an *exact* MI top-k query against ``target`` by adaptive sampling."""
    spec = QuerySpec(
        kind="top_k", score="mutual_information", k=k, target=target,
        attributes=candidates, prune=prune,
    )
    return cast(TopKResult, run_exact_stopping(
        store, spec, seed=seed, layout_seed=layout_seed,
        failure_probability=failure_probability, schedule=schedule,
        budget=budget, cancellation=cancellation, strict=strict,
    ))


def entropy_filter_mutual_information(
    store: ColumnSource,
    target: str,
    threshold: float,
    *,
    failure_probability: float | None = None,
    seed: int | np.random.Generator | None = None,
    candidates: Sequence[str] | None = None,
    schedule: SampleSchedule | None = None,
    layout_seed: int | None = None,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
) -> FilterResult:
    """Answer an *exact* MI filtering query against ``target`` by adaptive sampling."""
    spec = QuerySpec(
        kind="filter", score="mutual_information", threshold=threshold,
        target=target, attributes=candidates,
    )
    return cast(FilterResult, run_exact_stopping(
        store, spec, seed=seed, layout_seed=layout_seed,
        failure_probability=failure_probability, schedule=schedule,
        budget=budget, cancellation=cancellation, strict=strict,
    ))
