"""SWOPE approximate top-k query on empirical entropy (Algorithm 1).

Given a dataset, an integer ``k``, an error parameter ``ε`` and a failure
probability ``p_f``, return ``k`` attributes forming an *approximate top-k
answer* per Definition 5 of the paper with probability at least ``1 - p_f``:

* (i) the reported estimate of each returned attribute is at least
  ``(1 - ε)`` times its exact empirical entropy, and
* (ii) the exact entropy of the i-th returned attribute is at least
  ``(1 - ε)`` times the exact i-th largest entropy.

The expected running time is
``O(min{hN, h log(h log N / p_f) log² N / (ε² H(α*_k)²)})`` (Theorem 2) —
adaptively better the larger the k-th entropy is, and independent of the
gap Δ between the k-th and (k+1)-th scores that dominates the exact
EntropyRank baseline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, cast

import numpy as np

from repro.core.budget import CancellationToken, QueryBudget
from repro.core.plan import QuerySpec, run_query_spec
from repro.core.results import TopKResult
from repro.core.schedule import SampleSchedule
from repro.data.backends import CountingBackend
from repro.data.column_store import ColumnSource
from repro.data.sampling import PrefixSampler
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import TraceSink

if TYPE_CHECKING:  # pragma: no cover - typing only (repro.cache sits above)
    from repro.cache import CachePartition, PlanCache

__all__ = ["swope_top_k_entropy"]


def swope_top_k_entropy(
    store: ColumnSource,
    k: int,
    *,
    epsilon: float = 0.1,
    failure_probability: float | None = None,
    seed: int | np.random.Generator | None = None,
    attributes: list[str] | None = None,
    schedule: SampleSchedule | None = None,
    sampler: PrefixSampler | None = None,
    backend: str | CountingBackend | None = None,
    prune: bool = True,
    trace: TraceSink | None = None,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
    metrics: MetricsRegistry | None = None,
    cache: "PlanCache | CachePartition | None" = None,
) -> TopKResult:
    """Answer an approximate entropy top-k query with SWOPE (Algorithm 1).

    Parameters
    ----------
    store:
        The dataset to query.
    k:
        Number of attributes to return (clamped to the number of
        candidates).
    epsilon:
        Error parameter of Definition 5. The paper's evaluation default
        for entropy top-k queries is ``0.1``.
    failure_probability:
        ``p_f``; defaults to the paper's ``1/N``.
    seed:
        Seed or generator controlling the random shuffle.
    attributes:
        Restrict the query to these attributes (default: all).
    schedule:
        Override the sample-size schedule (default: paper ``M0`` with
        doubling).
    sampler:
        Provide a pre-built sampler — used by experiments that want
        sequential (non-shuffled) sampling or shared counters.
    backend:
        Counting backend for a freshly built sampler (a
        :data:`~repro.data.backends.BACKEND_NAMES` name, a
        :class:`~repro.data.backends.CountingBackend` instance, or
        ``None`` to honour ``REPRO_BACKEND``). Mutually exclusive with
        ``sampler=``, which already owns its backend. All backends
        return bit-identical results.
    prune:
        Apply candidate pruning (Algorithm 1, lines 15–17).
    budget:
        Optional :class:`~repro.core.budget.QueryBudget` (deadline,
        cell, and sample-size limits) checked once per iteration.
    cancellation:
        Optional :class:`~repro.core.budget.CancellationToken` for
        cooperative cancellation from another thread.
    strict:
        Raise :class:`~repro.exceptions.BudgetExceededError` /
        :class:`~repro.exceptions.QueryCancelledError` on truncation
        instead of returning a best-effort result.
    trace:
        A :class:`~repro.obs.sinks.TraceSink` receiving the structured
        event stream — at a fixed seed the JSONL rendering is byte-stable
        (see ``docs/OBSERVABILITY.md``); an
        :class:`~repro.obs.sinks.InMemorySink` keeps it in process.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` fed the
        run's counters and latency histograms.
    cache:
        Optional :class:`~repro.cache.PlanCache` (or pre-bound
        :class:`~repro.cache.CachePartition`): serves retired answers
        without re-running, warm-starts counters, and absorbs this run's
        results (see :func:`repro.core.plan.run_query_spec`).

    Returns
    -------
    TopKResult
        Returned attributes in decreasing order of their upper bounds,
        with per-attribute estimates, run statistics, and the
        :class:`~repro.core.results.GuaranteeStatus` of the run.
    """
    spec = QuerySpec(
        kind="top_k",
        score="entropy",
        k=k,
        epsilon=epsilon,
        attributes=tuple(attributes) if attributes is not None else None,
        prune=prune,
    )
    return cast(
        TopKResult,
        run_query_spec(
            store, spec,
            failure_probability=failure_probability, seed=seed,
            schedule=schedule, sampler=sampler, backend=backend,
            trace=trace, budget=budget, cancellation=cancellation,
            strict=strict, metrics=metrics, cache=cache,
        ),
    )
