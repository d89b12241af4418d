"""Single-query experiment runner with ground-truth caching.

Bridges the algorithms to the figure harness: runs one
:class:`~repro.core.plan.QuerySpec` under one algorithm on one dataset,
measures wall-clock and cells scanned, and scores accuracy against
cached exact ground truth. Used by :mod:`repro.experiments.figures` and
by the pytest benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines import (
    exact_entropies,
    exact_filter_entropy,
    exact_filter_mutual_information,
    exact_mutual_informations,
    exact_top_k_entropy,
    exact_top_k_mutual_information,
)
from repro.core.plan import PlanExecutor, QueryResult, QuerySpec, run_exact_stopping
from repro.data.column_store import ColumnStore
from repro.experiments.accuracy import filter_precision_recall, top_k_accuracy
from repro.exceptions import ParameterError

__all__ = [
    "ALGORITHMS",
    "QUERY_LABELS",
    "GroundTruthCache",
    "QueryOutcome",
    "run_query",
]

#: Algorithm labels used throughout figures and benchmarks.
ALGORITHMS = ("swope", "entropy_rank", "exact")

#: The figure harness's label (``FigureSpec.query``, ``QueryOutcome.query``)
#: for each ``(kind, score)`` query shape.
QUERY_LABELS = {
    ("top_k", "entropy"): "entropy_topk",
    ("filter", "entropy"): "entropy_filter",
    ("top_k", "mutual_information"): "mi_topk",
    ("filter", "mutual_information"): "mi_filter",
}


class GroundTruthCache:
    """Memoised exact scores per store (entropy) and per (store, target) (MI).

    Exact full scans are the expensive part of accuracy measurement; one
    instance of this cache is shared across all points of a figure so each
    dataset pays for ground truth once. Each entry holds its store, so a
    store's id cannot be recycled for another store while the cache
    lives.
    """

    def __init__(self) -> None:
        self._entropy: dict[int, tuple[ColumnStore, dict[str, float]]] = {}
        self._mi: dict[tuple[int, str], tuple[ColumnStore, dict[str, float]]] = {}

    def entropies(self, store: ColumnStore) -> dict[str, float]:
        key = id(store)
        if key not in self._entropy:
            self._entropy[key] = (store, exact_entropies(store))
        return self._entropy[key][1]

    def mutual_informations(self, store: ColumnStore, target: str) -> dict[str, float]:
        key = (id(store), target)
        if key not in self._mi:
            self._mi[key] = (store, exact_mutual_informations(store, target))
        return self._mi[key][1]

    def scores(self, store: ColumnStore, spec: QuerySpec) -> dict[str, float]:
        """The exact scores ``spec`` ranks or filters by."""
        if spec.target is None:
            return self.entropies(store)
        return self.mutual_informations(store, spec.target)


@dataclass
class QueryOutcome:
    """One measured query execution.

    ``accuracy`` is the paper's metric: top-k hit fraction for top-k
    queries, recall of the exact answer set for filtering queries (with
    precision recorded separately in ``extra``).
    """

    algorithm: str
    query: str
    parameter: float
    wall_seconds: float
    cells_scanned: int
    sample_fraction: float
    accuracy: float
    answer: list[str]
    extra: dict[str, float] = field(default_factory=dict)


def _exact_answer(store: ColumnStore, spec: QuerySpec) -> QueryResult:
    """The full-scan answer to ``spec`` (the "Exact" competitor)."""
    attributes = None if spec.attributes is None else list(spec.attributes)
    if spec.target is None:
        if spec.k is not None:
            return exact_top_k_entropy(store, spec.k, attributes=attributes)
        assert spec.threshold is not None  # QuerySpec guards
        return exact_filter_entropy(store, spec.threshold, attributes=attributes)
    if spec.k is not None:
        return exact_top_k_mutual_information(
            store, spec.target, spec.k, candidates=attributes
        )
    assert spec.threshold is not None  # QuerySpec guards
    return exact_filter_mutual_information(
        store, spec.target, spec.threshold, candidates=attributes
    )


def run_query(
    store: ColumnStore,
    algorithm: str,
    spec: QuerySpec,
    *,
    seed: int | None = 0,
    truth: GroundTruthCache | None = None,
    layout_seed: int | None = None,
) -> QueryOutcome:
    """Run ``spec`` under ``algorithm`` and score it against exact ground truth.

    ``"swope"`` runs the spec on a fresh
    :class:`~repro.core.plan.PlanExecutor`, ``"entropy_rank"`` through
    :func:`~repro.core.plan.run_exact_stopping` (EntropyRank or
    EntropyFilter, by the spec's kind), and ``"exact"`` by full scan.
    Both sampled algorithms read the store's sampling layout (of
    ``layout_seed``, ``None`` for the store's default) in contiguous
    slices from an offset drawn from ``seed`` — the paper's setup
    ("SWOPE stores data by columnar layout and do sequential sampling",
    Section 6.1) on the default path.
    """
    if algorithm not in ALGORITHMS:
        raise ParameterError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )
    truth = truth or GroundTruthCache()
    result: QueryResult
    if algorithm == "swope":
        result = PlanExecutor(
            store, seed=seed, layout_seed=layout_seed
        ).execute_one(spec)
    elif algorithm == "entropy_rank":
        result = run_exact_stopping(
            store, spec, seed=seed, layout_seed=layout_seed
        )
    else:
        result = _exact_answer(store, spec)
    scores = truth.scores(store, spec)
    extra: dict[str, float] = {}
    if spec.k is not None:
        parameter = float(spec.k)
        accuracy = top_k_accuracy(result.attributes, scores, spec.k)
    else:
        assert spec.threshold is not None  # QuerySpec guards
        parameter = float(spec.threshold)
        quality = filter_precision_recall(result.attributes, scores, spec.threshold)
        accuracy = quality.recall
        extra = {"precision": quality.precision, "f1": quality.f1}
    return QueryOutcome(
        algorithm=algorithm,
        query=QUERY_LABELS[(spec.kind, spec.score)],
        parameter=parameter,
        wall_seconds=result.stats.wall_seconds,
        cells_scanned=result.stats.cells_scanned,
        sample_fraction=result.stats.sample_fraction,
        accuracy=accuracy,
        answer=list(result.attributes),
        extra=extra,
    )
