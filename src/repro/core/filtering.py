"""SWOPE approximate filtering query on empirical entropy (Algorithm 2).

Given a threshold ``η``, return a set ``X`` of attributes such that, with
probability at least ``1 - p_f`` (Definition 6):

* every attribute with ``H(α) >= (1 + ε)η`` is in ``X``;
* no attribute with ``H(α) < (1 - ε)η`` is in ``X``;
* attributes in the ``[(1 - ε)η, (1 + ε)η)`` band may go either way.

Expected running time
``O(min{hN, h log(h log N / p_f) log² N / (ε² η²)})`` (Theorem 4) —
dependent on the user's threshold rather than on the data-dependent
smallest gap ``δ`` that dominates the exact EntropyFilter baseline.
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

__all__ = ["swope_filter_entropy"]


def swope_filter_entropy(
    store: ColumnSource,
    threshold: float,
    *,
    epsilon: float = 0.05,
    failure_probability: float | None = None,
    seed: int | np.random.Generator | None = None,
    attributes: list[str] | None = None,
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
    """Answer an approximate entropy filtering query with SWOPE (Algorithm 2).

    Parameters
    ----------
    store:
        The dataset to query.
    threshold:
        The filter threshold ``η`` in bits.
    epsilon:
        Error parameter of Definition 6. The paper's evaluation default
        for entropy filtering queries is ``0.05``.
    failure_probability:
        ``p_f``; defaults to the paper's ``1/N``.
    seed:
        Seed or generator controlling the random shuffle.
    attributes:
        Restrict the query to these attributes (default: all).
    schedule:
        Override the sample-size schedule.
    sampler:
        Provide a pre-built sampler (sequential sampling, shared counters).
    backend:
        Counting backend for a freshly built sampler, as in
        :func:`repro.core.topk.swope_top_k_entropy` (mutually exclusive
        with ``sampler=``).
    budget, cancellation, strict:
        Resilience controls as in
        :func:`repro.core.topk.swope_top_k_entropy`; a truncated run
        resolves still-undecided attributes by interval midpoint and
        lists them in ``result.guarantee.undecided``.
    trace, metrics:
        Observability hooks as in
        :func:`repro.core.topk.swope_top_k_entropy` — a
        :class:`~repro.obs.sinks.TraceSink` receives the structured
        event stream, a :class:`~repro.obs.metrics.MetricsRegistry`
        aggregates counters and latency histograms.
    cache:
        Plan cache (or pre-bound partition) as in
        :func:`repro.core.topk.swope_top_k_entropy` — note semantic
        reuse here: a stored answer at threshold ``η`` can serve any
        ``η′ ≥ η`` whose decisions its history proves.

    Returns
    -------
    FilterResult
        The included attributes ordered by decreasing estimate, estimates
        for every examined attribute, run statistics, and the
        :class:`~repro.core.results.GuaranteeStatus` of the run.
    """
    spec = QuerySpec(
        kind="filter",
        score="entropy",
        threshold=threshold,
        epsilon=epsilon,
        attributes=tuple(attributes) if attributes is not None else None,
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
