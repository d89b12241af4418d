"""Exact baseline: full-scan empirical entropy and mutual information.

The straightforward solution of Section 2.2 — scan every record of every
column, compute the exact scores, and answer the query from them. Serves
three roles in this repository: the "Exact" competitor of the paper's
evaluation, the ground truth for all accuracy metrics, and the reference
implementation the statistical tests validate the sampling algorithms
against.
"""

from __future__ import annotations

import time

from repro.core.engine import validate_k, validate_threshold
from repro.core.estimators import (
    entropy_from_counts,
    joint_entropy_from_counter,
)
from repro.core.results import AttributeEstimate, FilterResult, RunStats, TopKResult
from repro.data.column_store import ColumnStore
from repro.data.joint import JointCounter
from repro.exceptions import ParameterError, SchemaError

__all__ = [
    "exact_entropies",
    "exact_entropy",
    "exact_joint_entropy",
    "exact_mutual_information",
    "exact_mutual_informations",
    "exact_top_k_entropy",
    "exact_filter_entropy",
    "exact_top_k_mutual_information",
    "exact_filter_mutual_information",
]


# ----------------------------------------------------------------------
# Exact scores
# ----------------------------------------------------------------------
def exact_entropy(store: ColumnStore, attribute: str) -> float:
    """Exact empirical entropy ``H_D(α)`` of one attribute (bits)."""
    return entropy_from_counts(store.value_counts(attribute), total=store.num_rows)


def exact_entropies(
    store: ColumnStore, attributes: list[str] | None = None
) -> dict[str, float]:
    """Exact empirical entropies of several attributes (full column scans)."""
    names = list(attributes) if attributes is not None else list(store.attributes)
    return {name: exact_entropy(store, name) for name in names}


def exact_joint_entropy(store: ColumnStore, first: str, second: str) -> float:
    """Exact empirical joint entropy ``H_D(α1, α2)`` (bits)."""
    if first == second:
        raise SchemaError("joint entropy of an attribute with itself is its entropy")
    # Exact baseline reads the whole dataset once; there is no sampler
    # whose batch methods could own this counter.
    counter = JointCounter(
        store.support_size(first), store.support_size(second)
    )
    counter.update(store.column(first), store.column(second))
    return joint_entropy_from_counter(counter)


def exact_mutual_information(store: ColumnStore, first: str, second: str) -> float:
    """Exact empirical mutual information ``I_D(α1, α2)`` (bits)."""
    h1 = exact_entropy(store, first)
    h2 = exact_entropy(store, second)
    h12 = exact_joint_entropy(store, first, second)
    return max(0.0, h1 + h2 - h12)


def exact_mutual_informations(
    store: ColumnStore, target: str, candidates: list[str] | None = None
) -> dict[str, float]:
    """Exact MI of every candidate against ``target``."""
    if target not in store:
        raise SchemaError(f"unknown target attribute {target!r}")
    if candidates is None:
        candidates = [a for a in store.attributes if a != target]
    h_target = exact_entropy(store, target)
    scores: dict[str, float] = {}
    for name in candidates:
        if name == target:
            raise ParameterError(f"target {target!r} cannot also be a candidate")
        h_cand = exact_entropy(store, name)
        h_joint = exact_joint_entropy(store, target, name)
        scores[name] = max(0.0, h_target + h_cand - h_joint)
    return scores


# ----------------------------------------------------------------------
# Exact query answers (the paper's "Exact" competitor)
# ----------------------------------------------------------------------
def _stats_for_full_scan(
    store: ColumnStore, columns_read: int, started_at: float
) -> RunStats:
    return RunStats(
        iterations=1,
        final_sample_size=store.num_rows,
        population_size=store.num_rows,
        cells_scanned=columns_read * store.num_rows,
        wall_seconds=time.perf_counter() - started_at,
    )


def _exact_estimate(attribute: str, score: float, num_rows: int) -> AttributeEstimate:
    return AttributeEstimate(
        attribute=attribute,
        estimate=score,
        lower=score,
        upper=score,
        sample_size=num_rows,
    )


def exact_top_k_entropy(
    store: ColumnStore, k: int, *, attributes: list[str] | None = None
) -> TopKResult:
    """Exact entropy top-k by full scan."""
    k = validate_k(k)
    started = time.perf_counter()
    scores = exact_entropies(store, attributes)
    ranked = sorted(scores, key=lambda a: (-scores[a], a))[: min(k, len(scores))]
    return TopKResult(
        attributes=ranked,
        estimates=[_exact_estimate(a, scores[a], store.num_rows) for a in ranked],
        stats=_stats_for_full_scan(store, len(scores), started),
        k=k,
    )


def exact_filter_entropy(
    store: ColumnStore, threshold: float, *, attributes: list[str] | None = None
) -> FilterResult:
    """Exact entropy filtering (``H_D(α) >= η``) by full scan."""
    threshold = validate_threshold(threshold)
    started = time.perf_counter()
    scores = exact_entropies(store, attributes)
    included = sorted(
        (a for a, s in scores.items() if s >= threshold),
        key=lambda a: (-scores[a], a),
    )
    estimates = {
        a: _exact_estimate(a, s, store.num_rows) for a, s in scores.items()
    }
    return FilterResult(
        attributes=included,
        estimates=estimates,
        stats=_stats_for_full_scan(store, len(scores), started),
        threshold=threshold,
    )


def exact_top_k_mutual_information(
    store: ColumnStore,
    target: str,
    k: int,
    *,
    candidates: list[str] | None = None,
) -> TopKResult:
    """Exact MI top-k against ``target`` by full scan."""
    k = validate_k(k)
    started = time.perf_counter()
    scores = exact_mutual_informations(store, target, candidates)
    ranked = sorted(scores, key=lambda a: (-scores[a], a))[: min(k, len(scores))]
    # Each candidate costs a candidate-column scan plus a pair scan (two
    # columns); the target column is scanned once.
    columns_read = 1 + 3 * len(scores)
    return TopKResult(
        attributes=ranked,
        estimates=[_exact_estimate(a, scores[a], store.num_rows) for a in ranked],
        stats=_stats_for_full_scan(store, columns_read, started),
        k=k,
        target=target,
    )


def exact_filter_mutual_information(
    store: ColumnStore,
    target: str,
    threshold: float,
    *,
    candidates: list[str] | None = None,
) -> FilterResult:
    """Exact MI filtering (``I_D(α_t, α) >= η``) by full scan."""
    threshold = validate_threshold(threshold)
    started = time.perf_counter()
    scores = exact_mutual_informations(store, target, candidates)
    included = sorted(
        (a for a, s in scores.items() if s >= threshold),
        key=lambda a: (-scores[a], a),
    )
    estimates = {
        a: _exact_estimate(a, s, store.num_rows) for a, s in scores.items()
    }
    columns_read = 1 + 3 * len(scores)
    return FilterResult(
        attributes=included,
        estimates=estimates,
        stats=_stats_for_full_scan(store, columns_read, started),
        threshold=threshold,
        target=target,
    )
