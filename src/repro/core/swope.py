"""The paper's four SWOPE queries (Algorithms 1–4) as plain functions.

Each function answers one query on a fresh
:class:`~repro.core.plan.PlanExecutor`::

    PlanExecutor(store, seed=, layout_seed=, backend=,
                 failure_probability=, cache=).<query>(...)

so a single query and a plan share one path: candidate resolution,
schedule, cache and the adaptive loop all live in
:meth:`~repro.core.plan.PlanExecutor.execute_one`. Unlike the executor's
query methods, the top-k functions prune by default (Algorithm 1, lines
15–17).

* Entropy top-k (Algorithm 1, Definition 5): with probability at least
  ``1 - p_f`` every returned estimate is at least ``(1 - ε)`` times its
  exact entropy, and the i-th returned attribute's exact entropy is at
  least ``(1 - ε)`` times the exact i-th largest. Expected cost
  ``O(min{hN, h log(h log N / p_f) log² N / (ε² H(α*_k)²)})``
  (Theorem 2) — independent of the k-th/(k+1)-th gap that dominates the
  exact EntropyRank baseline.
* Entropy filtering (Algorithm 2, Definition 6): every attribute with
  ``H(α) >= (1 + ε)η`` is returned, none with ``H(α) < (1 - ε)η`` is,
  and the band between may go either way. Expected cost
  ``O(min{hN, h log(h log N / p_f) log² N / (ε² η²)})`` (Theorem 4).
* MI top-k and filtering (Algorithms 3 and 4) against a target ``α_t``:
  the same rules with three Lemma 3 bounds per candidate (target,
  candidate and joint entropy), so the per-bound failure budget is
  ``p_f / (3 · i_max · (h - 1))``, the width is ``6λ + b'(α)`` with
  ``b'(α) = b(α_t) + b(α) + b(α_t, α)``, and the unknown pair support
  ``u_{t,α}`` is bounded by ``u_t · u_α``.

Shared parameters
-----------------
epsilon:
    Error parameter of Definition 5/6; ``None`` takes the paper's
    evaluation default for the query shape
    (:data:`~repro.core.plan.PAPER_EPSILON`: 0.1 entropy top-k, 0.05
    entropy filtering, 0.5 for MI).
failure_probability:
    ``p_f``; defaults to the paper's ``1/N``.
seed:
    Seed or generator of the run's offset into the store's sampling
    layout.
attributes / candidates:
    Restrict the query to these attributes (default: all; for MI, all
    but the target). An empty list raises
    :class:`~repro.exceptions.PlanError`.
schedule:
    Override the sample-size schedule (default: paper ``M0`` with
    doubling).
layout_seed:
    Seed of the store's sampling layout (``None``: the store's own; an
    mmap store accepts only the seed it was built with).
backend:
    Counting backend (``None`` or ``"numpy"`` for the built-in
    :class:`~repro.data.backends.NumpyBackend`, or a
    :class:`~repro.data.backends.CountingBackend` instance).
prune:
    Apply top-k candidate pruning (Algorithm 1, lines 15–17).
budget, cancellation, strict:
    A :class:`~repro.core.budget.QueryBudget` checked once per iteration,
    a :class:`~repro.core.budget.CancellationToken`, and whether to raise
    :class:`~repro.exceptions.BudgetExceededError` /
    :class:`~repro.exceptions.QueryCancelledError` on truncation instead
    of returning a best-effort answer (a truncated filter resolves its
    undecided attributes by interval midpoint and lists them in
    ``result.guarantee.undecided``).
trace, metrics:
    A :class:`~repro.obs.sinks.TraceSink` receiving the structured event
    stream (byte-stable at a fixed seed, see ``docs/OBSERVABILITY.md``)
    and a :class:`~repro.obs.metrics.MetricsRegistry` fed the run's
    counters and latency histograms.
cache:
    A :class:`~repro.cache.PlanCache`: serves retired answers without
    re-running (exact matches, and semantic dominance — a stored answer
    at ``η``/``k`` can serve ``η′ ≥ η``/``k′ ≤ k``), warm-starts
    counters, and absorbs this run's results.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.budget import CancellationToken, QueryBudget
from repro.core.plan import PlanExecutor
from repro.core.results import FilterResult, TopKResult
from repro.core.schedule import SampleSchedule
from repro.data.backends import CountingBackend
from repro.data.column_store import ColumnSource
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import TraceSink

if TYPE_CHECKING:  # pragma: no cover - typing only (repro.cache sits above)
    from repro.cache import PlanCache

__all__ = [
    "swope_filter_entropy",
    "swope_filter_mutual_information",
    "swope_top_k_entropy",
    "swope_top_k_mutual_information",
]


def swope_top_k_entropy(
    store: ColumnSource,
    k: int,
    *,
    epsilon: float | None = None,
    failure_probability: float | None = None,
    seed: int | np.random.Generator | None = None,
    attributes: Sequence[str] | None = None,
    schedule: SampleSchedule | None = None,
    layout_seed: int | None = None,
    backend: str | CountingBackend | None = None,
    prune: bool = True,
    trace: TraceSink | None = None,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
    metrics: MetricsRegistry | None = None,
    cache: "PlanCache | None" = None,
) -> TopKResult:
    """Approximate entropy top-k query (Algorithm 1).

    Returns the ``k`` attributes (clamped to the number of candidates) in
    decreasing order of their upper bounds, with per-attribute estimates,
    run statistics and the :class:`~repro.core.results.GuaranteeStatus`
    of the run. Keywords as in the module docstring.
    """
    return PlanExecutor(
        store, seed=seed, layout_seed=layout_seed, backend=backend,
        failure_probability=failure_probability, cache=cache,
    ).top_k_entropy(
        k, epsilon=epsilon, attributes=attributes, prune=prune,
        schedule=schedule, budget=budget, cancellation=cancellation,
        strict=strict, trace=trace, metrics=metrics,
    )


def swope_filter_entropy(
    store: ColumnSource,
    threshold: float,
    *,
    epsilon: float | None = None,
    failure_probability: float | None = None,
    seed: int | np.random.Generator | None = None,
    attributes: Sequence[str] | None = None,
    schedule: SampleSchedule | None = None,
    layout_seed: int | None = None,
    backend: str | CountingBackend | None = None,
    trace: TraceSink | None = None,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
    metrics: MetricsRegistry | None = None,
    cache: "PlanCache | None" = None,
) -> FilterResult:
    """Approximate entropy filtering query at threshold ``η`` (Algorithm 2).

    Returns the included attributes ordered by decreasing estimate,
    estimates for every examined attribute, run statistics and the
    guarantee status. Keywords as in the module docstring.
    """
    return PlanExecutor(
        store, seed=seed, layout_seed=layout_seed, backend=backend,
        failure_probability=failure_probability, cache=cache,
    ).filter_entropy(
        threshold, epsilon=epsilon, attributes=attributes,
        schedule=schedule, budget=budget, cancellation=cancellation,
        strict=strict, trace=trace, metrics=metrics,
    )


def swope_top_k_mutual_information(
    store: ColumnSource,
    target: str,
    k: int,
    *,
    epsilon: float | None = None,
    failure_probability: float | None = None,
    seed: int | np.random.Generator | None = None,
    candidates: Sequence[str] | None = None,
    schedule: SampleSchedule | None = None,
    layout_seed: int | None = None,
    backend: str | CountingBackend | None = None,
    prune: bool = True,
    trace: TraceSink | None = None,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
    metrics: MetricsRegistry | None = None,
    cache: "PlanCache | None" = None,
) -> TopKResult:
    """Approximate MI top-k query against ``target`` (Algorithm 3).

    ``result.target`` records the target attribute. Keywords as in the
    module docstring.
    """
    return PlanExecutor(
        store, seed=seed, layout_seed=layout_seed, backend=backend,
        failure_probability=failure_probability, cache=cache,
    ).top_k_mutual_information(
        target, k, epsilon=epsilon, candidates=candidates, prune=prune,
        schedule=schedule, budget=budget, cancellation=cancellation,
        strict=strict, trace=trace, metrics=metrics,
    )


def swope_filter_mutual_information(
    store: ColumnSource,
    target: str,
    threshold: float,
    *,
    epsilon: float | None = None,
    failure_probability: float | None = None,
    seed: int | np.random.Generator | None = None,
    candidates: Sequence[str] | None = None,
    schedule: SampleSchedule | None = None,
    layout_seed: int | None = None,
    backend: str | CountingBackend | None = None,
    trace: TraceSink | None = None,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
    metrics: MetricsRegistry | None = None,
    cache: "PlanCache | None" = None,
) -> FilterResult:
    """Approximate MI filtering query against ``target`` (Algorithm 4).

    The paper varies ``η`` over 0.1–0.5 bits for MI, which typically
    scores lower than entropy. Keywords as in the module docstring.
    """
    return PlanExecutor(
        store, seed=seed, layout_seed=layout_seed, backend=backend,
        failure_probability=failure_probability, cache=cache,
    ).filter_mutual_information(
        target, threshold, epsilon=epsilon, candidates=candidates,
        schedule=schedule, budget=budget, cancellation=cancellation,
        strict=strict, trace=trace, metrics=metrics,
    )
