"""SWOPE approximate top-k query on empirical mutual information (Alg. 3).

Given a target attribute ``α_t``, return the ``k`` candidate attributes
with (approximately) the largest ``I(α_t, α)`` — the core primitive of
entropy-based feature selection. The guarantees and machinery mirror the
entropy top-k query (Definition 5, Theorem 5) with three differences:

* each candidate consumes three Lemma 3 bounds per iteration (target
  entropy, candidate entropy, joint entropy), so the per-bound failure
  budget is ``p_f / (3 · i_max · (h - 1))``;
* the interval width is ``6λ + b'(α)`` with
  ``b'(α) = b(α_t) + b(α) + b(α_t, α)``;
* the unknown pair support ``u_{t,α}`` is upper-bounded by ``u_t · u_α``.
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

__all__ = ["swope_top_k_mutual_information"]


def swope_top_k_mutual_information(
    store: ColumnSource,
    target: str,
    k: int,
    *,
    epsilon: float = 0.5,
    failure_probability: float | None = None,
    seed: int | np.random.Generator | None = None,
    candidates: list[str] | None = None,
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
    """Answer an approximate MI top-k query with SWOPE (Algorithm 3).

    Parameters
    ----------
    store:
        The dataset to query.
    target:
        The target attribute ``α_t`` (excluded from the candidates).
    k:
        Number of candidates to return.
    epsilon:
        Error parameter of Definition 5. The paper's evaluation default
        for MI queries is ``0.5``.
    failure_probability:
        ``p_f``; defaults to the paper's ``1/N``.
    seed:
        Seed or generator controlling the random shuffle.
    candidates:
        Restrict the candidate set (default: all attributes except
        ``target``).
    schedule, sampler, backend, prune, budget, cancellation, strict:
        As in :func:`repro.core.topk.swope_top_k_entropy`.
    trace, metrics, cache:
        Observability hooks and the plan cache, as in
        :func:`repro.core.topk.swope_top_k_entropy`.

    Returns
    -------
    TopKResult
        ``result.target`` records the target attribute.
    """
    spec = QuerySpec(
        kind="top_k",
        score="mutual_information",
        k=k,
        epsilon=epsilon,
        target=target,
        attributes=tuple(candidates) if candidates is not None else None,
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
