"""SWOPE approximate filtering query on empirical mutual info (Algorithm 4).

Identical to the entropy filtering query (Algorithm 2) with the entropy
bounds replaced by the Section 4 mutual-information bounds and the failure
budget tripled per attribute — exactly the substitution Algorithm 4 of the
paper describes. Returns attributes whose ``I(α_t, α)`` clears the
threshold ``η`` per the Definition 6 relaxation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, cast

import numpy as np

from repro.core.budget import CancellationToken, QueryBudget
from repro.core.plan import QuerySpec, run_query_spec
from repro.core.results import FilterResult
from repro.core.schedule import SampleSchedule
from repro.data.backends import CountingBackend
from repro.data.column_store import ColumnSource
from repro.data.sampling import PrefixSampler
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import TraceSink

if TYPE_CHECKING:  # pragma: no cover - typing only (repro.cache sits above)
    from repro.cache import CachePartition, PlanCache

__all__ = ["swope_filter_mutual_information"]


def swope_filter_mutual_information(
    store: ColumnSource,
    target: str,
    threshold: float,
    *,
    epsilon: float = 0.5,
    failure_probability: float | None = None,
    seed: int | np.random.Generator | None = None,
    candidates: list[str] | None = None,
    schedule: SampleSchedule | None = None,
    sampler: PrefixSampler | None = None,
    backend: str | CountingBackend | None = None,
    trace: TraceSink | None = None,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
    metrics: MetricsRegistry | None = None,
    cache: "PlanCache | CachePartition | None" = None,
) -> FilterResult:
    """Answer an approximate MI filtering query with SWOPE (Algorithm 4).

    Parameters
    ----------
    store:
        The dataset to query.
    target:
        The target attribute ``α_t``.
    threshold:
        The filter threshold ``η`` in bits (the paper varies 0.1–0.5 for
        MI, which typically scores lower than entropy).
    epsilon:
        Error parameter of Definition 6; paper default ``0.5`` for MI.
    failure_probability:
        ``p_f``; defaults to the paper's ``1/N``.
    seed, candidates, schedule, sampler, backend:
        As in :func:`repro.core.mi_topk.swope_top_k_mutual_information`.
    budget, cancellation, strict:
        Resilience controls as in
        :func:`repro.core.filtering.swope_filter_entropy`.
    trace, metrics, cache:
        Observability hooks and the plan cache, as in
        :func:`repro.core.topk.swope_top_k_entropy`.
    """
    spec = QuerySpec(
        kind="filter",
        score="mutual_information",
        threshold=threshold,
        epsilon=epsilon,
        target=target,
        attributes=tuple(candidates) if candidates is not None else None,
    )
    return cast(
        FilterResult,
        run_query_spec(
            store, spec,
            failure_probability=failure_probability, seed=seed,
            schedule=schedule, sampler=sampler, backend=backend,
            trace=trace, budget=budget, cancellation=cancellation,
            strict=strict, metrics=metrics, cache=cache,
        ),
    )
