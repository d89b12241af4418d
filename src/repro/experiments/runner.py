"""Single-query experiment runner with ground-truth caching.

Bridges the algorithms to the figure harness: runs one (algorithm, query,
parameter) combination on one dataset, measures wall-clock and cells
scanned, and scores accuracy against cached exact ground truth. Used by
:mod:`repro.experiments.figures` and by the pytest benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines import (
    entropy_filter,
    entropy_filter_mutual_information,
    entropy_rank_top_k,
    entropy_rank_top_k_mutual_information,
    exact_entropies,
    exact_filter_entropy,
    exact_filter_mutual_information,
    exact_mutual_informations,
    exact_top_k_entropy,
    exact_top_k_mutual_information,
)
from repro.core import (
    swope_filter_entropy,
    swope_filter_mutual_information,
    swope_top_k_entropy,
    swope_top_k_mutual_information,
)
from repro.data.column_store import ColumnStore
from repro.data.sampling import PrefixSampler
from repro.experiments.accuracy import filter_precision_recall, top_k_accuracy
from repro.exceptions import ParameterError

__all__ = [
    "ALGORITHMS",
    "GroundTruthCache",
    "QueryOutcome",
    "run_entropy_top_k",
    "run_entropy_filter",
    "run_mi_top_k",
    "run_mi_filter",
]

#: Algorithm labels used throughout figures and benchmarks.
ALGORITHMS = ("swope", "entropy_rank", "exact")


def _make_sampler(
    store: ColumnStore, seed: int | None, sequential: bool
) -> PrefixSampler:
    """Build the sampler an exact-stopping baseline run uses.

    SWOPE runs pass the same ``seed``/``sequential`` to the query
    function. The experiment harness defaults to ``sequential=True``,
    mirroring the paper's setup ("SWOPE stores data by columnar layout
    and do sequential sampling", Section 6.1): the synthetic datasets
    emit i.i.d. rows, so a physical prefix is statistically equivalent to
    a shuffled prefix and avoids the gather cost of permuted reads. Pass
    ``sequential=False`` to exercise the shuffled path (the statistical
    tests do).
    """
    return PrefixSampler(store, seed=seed, sequential=sequential)


class GroundTruthCache:
    """Memoised exact scores per store (entropy) and per (store, target) (MI).

    Exact full scans are the expensive part of accuracy measurement; one
    instance of this cache is shared across all points of a figure so each
    dataset pays for ground truth once.
    """

    def __init__(self) -> None:
        self._entropy: dict[int, dict[str, float]] = {}
        self._mi: dict[tuple[int, str], dict[str, float]] = {}

    def entropies(self, store: ColumnStore) -> dict[str, float]:
        key = id(store)
        if key not in self._entropy:
            self._entropy[key] = exact_entropies(store)
        return self._entropy[key]

    def mutual_informations(self, store: ColumnStore, target: str) -> dict[str, float]:
        key = (id(store), target)
        if key not in self._mi:
            self._mi[key] = exact_mutual_informations(store, target)
        return self._mi[key]


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


def _check_algorithm(algorithm: str) -> None:
    if algorithm not in ALGORITHMS:
        raise ParameterError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )


def run_entropy_top_k(
    store: ColumnStore,
    algorithm: str,
    k: int,
    *,
    epsilon: float = 0.1,
    seed: int | None = 0,
    truth: GroundTruthCache | None = None,
    sequential: bool = True,
) -> QueryOutcome:
    """Run one entropy top-k query and score it against exact ground truth."""
    _check_algorithm(algorithm)
    truth = truth or GroundTruthCache()
    if algorithm == "swope":
        result = swope_top_k_entropy(
            store, k, epsilon=epsilon, seed=seed, sequential=sequential
        )
    elif algorithm == "entropy_rank":
        result = entropy_rank_top_k(
            store, k, sampler=_make_sampler(store, seed, sequential)
        )
    else:
        result = exact_top_k_entropy(store, k)
    scores = truth.entropies(store)
    accuracy = top_k_accuracy(result.attributes, scores, k)
    return QueryOutcome(
        algorithm=algorithm,
        query="entropy_topk",
        parameter=float(k),
        wall_seconds=result.stats.wall_seconds,
        cells_scanned=result.stats.cells_scanned,
        sample_fraction=result.stats.sample_fraction,
        accuracy=accuracy,
        answer=list(result.attributes),
    )


def run_entropy_filter(
    store: ColumnStore,
    algorithm: str,
    threshold: float,
    *,
    epsilon: float = 0.05,
    seed: int | None = 0,
    truth: GroundTruthCache | None = None,
    sequential: bool = True,
) -> QueryOutcome:
    """Run one entropy filtering query and score it against ground truth."""
    _check_algorithm(algorithm)
    truth = truth or GroundTruthCache()
    if algorithm == "swope":
        result = swope_filter_entropy(
            store, threshold, epsilon=epsilon, seed=seed, sequential=sequential
        )
    elif algorithm == "entropy_rank":
        result = entropy_filter(
            store, threshold, sampler=_make_sampler(store, seed, sequential)
        )
    else:
        result = exact_filter_entropy(store, threshold)
    scores = truth.entropies(store)
    quality = filter_precision_recall(result.attributes, scores, threshold)
    return QueryOutcome(
        algorithm=algorithm,
        query="entropy_filter",
        parameter=float(threshold),
        wall_seconds=result.stats.wall_seconds,
        cells_scanned=result.stats.cells_scanned,
        sample_fraction=result.stats.sample_fraction,
        accuracy=quality.recall,
        answer=list(result.attributes),
        extra={"precision": quality.precision, "f1": quality.f1},
    )


def run_mi_top_k(
    store: ColumnStore,
    algorithm: str,
    target: str,
    k: int,
    *,
    epsilon: float = 0.5,
    seed: int | None = 0,
    truth: GroundTruthCache | None = None,
    sequential: bool = True,
) -> QueryOutcome:
    """Run one MI top-k query against ``target`` and score it."""
    _check_algorithm(algorithm)
    truth = truth or GroundTruthCache()
    if algorithm == "swope":
        result = swope_top_k_mutual_information(
            store, target, k, epsilon=epsilon, seed=seed, sequential=sequential
        )
    elif algorithm == "entropy_rank":
        result = entropy_rank_top_k_mutual_information(
            store, target, k, sampler=_make_sampler(store, seed, sequential)
        )
    else:
        result = exact_top_k_mutual_information(store, target, k)
    scores = truth.mutual_informations(store, target)
    accuracy = top_k_accuracy(result.attributes, scores, k)
    return QueryOutcome(
        algorithm=algorithm,
        query="mi_topk",
        parameter=float(k),
        wall_seconds=result.stats.wall_seconds,
        cells_scanned=result.stats.cells_scanned,
        sample_fraction=result.stats.sample_fraction,
        accuracy=accuracy,
        answer=list(result.attributes),
        extra={"target_is": 1.0},
    )


def run_mi_filter(
    store: ColumnStore,
    algorithm: str,
    target: str,
    threshold: float,
    *,
    epsilon: float = 0.5,
    seed: int | None = 0,
    truth: GroundTruthCache | None = None,
    sequential: bool = True,
) -> QueryOutcome:
    """Run one MI filtering query against ``target`` and score it."""
    _check_algorithm(algorithm)
    truth = truth or GroundTruthCache()
    if algorithm == "swope":
        result = swope_filter_mutual_information(
            store, target, threshold, epsilon=epsilon,
            seed=seed, sequential=sequential,
        )
    elif algorithm == "entropy_rank":
        result = entropy_filter_mutual_information(
            store, target, threshold,
            sampler=_make_sampler(store, seed, sequential),
        )
    else:
        result = exact_filter_mutual_information(store, target, threshold)
    scores = truth.mutual_informations(store, target)
    quality = filter_precision_recall(result.attributes, scores, threshold)
    return QueryOutcome(
        algorithm=algorithm,
        query="mi_filter",
        parameter=float(threshold),
        wall_seconds=result.stats.wall_seconds,
        cells_scanned=result.stats.cells_scanned,
        sample_fraction=result.stats.sample_fraction,
        accuracy=quality.recall,
        answer=list(result.attributes),
        extra={"precision": quality.precision, "f1": quality.f1},
    )
