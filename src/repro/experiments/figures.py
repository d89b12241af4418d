"""Registry of the paper's evaluation: Figures 1–12 and Table 2.

Each :class:`FigureSpec` declares what one paper figure varies and holds
fixed; :func:`run_figure` executes it over the synthetic dataset analogues
and returns the same series the paper plots — query time per algorithm
(the (a)/time panels) and accuracy (the (b)/accuracy panels), plus the
scale-free cells-scanned metric DESIGN.md motivates.

Paper parameter grids (Section 6.1):

* top-k queries: k ∈ {1, 2, 4, 8, 10};
* entropy filtering: η ∈ {0.5, 1.0, 1.5, 2.0, 2.5, 3.0};
* MI filtering: η ∈ {0.1, 0.2, 0.3, 0.4, 0.5};
* ε tuning: ε ∈ {0.01, 0.025, 0.05, 0.1, 0.25, 0.5} with k = 4 /
  η = 2 (entropy) / η = 0.3 (MI);
* defaults ε = 0.1 (entropy top-k), 0.05 (entropy filter), 0.5 (MI both);
* p_f = 1/N; MI metrics averaged over several targets (20 in the paper).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from statistics import mean

from repro.core.plan import QuerySpec
from repro.exceptions import ParameterError
from repro.experiments.runner import QUERY_LABELS, GroundTruthCache, run_query
from repro.synth.datasets import DATASETS, dataset_summary, load_dataset

__all__ = [
    "FigureSpec",
    "FigurePoint",
    "FigureRun",
    "FIGURES",
    "figure_queries",
    "run_figure",
    "run_table2",
]

_TOPK_GRID = (1, 2, 4, 8, 10)
_ENTROPY_ETA_GRID = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
_MI_ETA_GRID = (0.1, 0.2, 0.3, 0.4, 0.5)
_EPSILON_GRID = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5)
_ALL_ALGOS = ("swope", "entropy_rank", "exact")


@dataclass(frozen=True)
class FigureSpec:
    """Declarative description of one paper figure."""

    figure_id: str
    title: str
    query: str  # entropy_topk | entropy_filter | mi_topk | mi_filter
    sweep: str  # "k" | "eta" | "epsilon"
    x_values: tuple[float, ...]
    algorithms: tuple[str, ...]
    epsilon: float | None = None  # fixed ε (None for ε sweeps)
    fixed_k: int | None = None
    fixed_eta: float | None = None

    def x_label(self) -> str:
        return {"k": "k", "eta": "eta", "epsilon": "epsilon"}[self.sweep]


@dataclass
class FigurePoint:
    """One (dataset, x, algorithm) measurement, averaged over MI targets."""

    dataset: str
    x: float
    algorithm: str
    seconds: float
    cells_scanned: float
    sample_fraction: float
    accuracy: float
    extra: dict[str, float] = field(default_factory=dict)


@dataclass
class FigureRun:
    """All points of one figure execution plus run configuration."""

    spec: FigureSpec
    datasets: list[str]
    scale: float
    num_targets: int
    points: list[FigurePoint] = field(default_factory=list)

    def series(
        self, dataset: str, algorithm: str, metric: str = "seconds"
    ) -> list[tuple[float, float]]:
        """(x, metric) pairs of one curve, in sweep order."""
        return [
            (p.x, getattr(p, metric))
            for p in self.points
            if p.dataset == dataset and p.algorithm == algorithm
        ]

    def speedup(
        self, dataset: str, baseline: str, x: float, metric: str = "cells_scanned"
    ) -> float:
        """``baseline / swope`` ratio of a cost metric at one sweep point."""
        base = [
            p
            for p in self.points
            if p.dataset == dataset and p.algorithm == baseline and p.x == x
        ]
        ours = [
            p
            for p in self.points
            if p.dataset == dataset and p.algorithm == "swope" and p.x == x
        ]
        if not base or not ours:
            raise ParameterError(
                f"no measurements for {dataset!r} at x={x} ({baseline} vs swope)"
            )
        denom = getattr(ours[0], metric)
        return getattr(base[0], metric) / denom if denom else float("inf")


FIGURES: dict[str, FigureSpec] = {
    "fig1": FigureSpec(
        "fig1", "Varying k: top-k on empirical entropy (query time)",
        "entropy_topk", "k", _TOPK_GRID, _ALL_ALGOS, epsilon=0.1,
    ),
    "fig2": FigureSpec(
        "fig2", "Varying k: top-k on empirical entropy (accuracy)",
        "entropy_topk", "k", _TOPK_GRID, _ALL_ALGOS, epsilon=0.1,
    ),
    "fig3": FigureSpec(
        "fig3", "Varying eta: filtering on empirical entropy (query time)",
        "entropy_filter", "eta", _ENTROPY_ETA_GRID, _ALL_ALGOS, epsilon=0.05,
    ),
    "fig4": FigureSpec(
        "fig4", "Varying eta: filtering on empirical entropy (accuracy)",
        "entropy_filter", "eta", _ENTROPY_ETA_GRID, _ALL_ALGOS, epsilon=0.05,
    ),
    "fig5": FigureSpec(
        "fig5", "Varying k: top-k on empirical mutual info (query time)",
        "mi_topk", "k", _TOPK_GRID, _ALL_ALGOS, epsilon=0.5,
    ),
    "fig6": FigureSpec(
        "fig6", "Varying k: top-k on empirical mutual info (accuracy)",
        "mi_topk", "k", _TOPK_GRID, _ALL_ALGOS, epsilon=0.5,
    ),
    "fig7": FigureSpec(
        "fig7", "Varying eta: filtering on empirical mutual info (query time)",
        "mi_filter", "eta", _MI_ETA_GRID, _ALL_ALGOS, epsilon=0.5,
    ),
    "fig8": FigureSpec(
        "fig8", "Varying eta: filtering on empirical mutual info (accuracy)",
        "mi_filter", "eta", _MI_ETA_GRID, _ALL_ALGOS, epsilon=0.5,
    ),
    "fig9": FigureSpec(
        "fig9", "Tuning epsilon: top-k on empirical entropy (k = 4)",
        "entropy_topk", "epsilon", _EPSILON_GRID, ("swope",), fixed_k=4,
    ),
    "fig10": FigureSpec(
        "fig10", "Tuning epsilon: filtering on empirical entropy (eta = 2)",
        "entropy_filter", "epsilon", _EPSILON_GRID, ("swope",), fixed_eta=2.0,
    ),
    "fig11": FigureSpec(
        "fig11", "Tuning epsilon: top-k on empirical mutual info (k = 4)",
        "mi_topk", "epsilon", _EPSILON_GRID, ("swope",), fixed_k=4,
    ),
    "fig12": FigureSpec(
        "fig12", "Tuning epsilon: filtering on empirical mutual info (eta = 0.3)",
        "mi_filter", "epsilon", _EPSILON_GRID, ("swope",), fixed_eta=0.3,
    ),
}


#: The ``(kind, score)`` query shape each figure's ``query`` label names.
_QUERY_SHAPES = {label: shape for shape, label in QUERY_LABELS.items()}


def figure_queries(
    spec: FigureSpec, x: float, targets: Sequence[str]
) -> list[QuerySpec]:
    """The queries one point of ``spec`` runs at sweep value ``x``.

    An entropy point is one query; an MI point is one query per target,
    in ``targets`` order, and its metrics are averaged over them.
    """
    if spec.sweep == "epsilon":
        epsilon = float(x)
        k = spec.fixed_k
        eta = spec.fixed_eta
    else:
        epsilon = spec.epsilon if spec.epsilon is not None else 0.1
        k = int(x) if spec.sweep == "k" else spec.fixed_k
        eta = float(x) if spec.sweep == "eta" else spec.fixed_eta
    kind, score = _QUERY_SHAPES[spec.query]
    top_k = kind == "top_k"
    per_query: Sequence[str | None] = (
        targets if score == "mutual_information" else (None,)
    )
    return [
        QuerySpec(
            kind, score,
            k=k if top_k else None, threshold=None if top_k else eta,
            epsilon=epsilon, target=target,
        )
        for target in per_query
    ]


def _run_point(
    spec: FigureSpec,
    store,
    targets: list[str],
    algorithm: str,
    x: float,
    seed: int,
    truth: GroundTruthCache,
) -> FigurePoint:
    """Execute one (algorithm, x) point; MI queries average over targets."""
    outcomes = [
        run_query(store, algorithm, query, seed=seed + index, truth=truth)
        for index, query in enumerate(figure_queries(spec, x, targets))
    ]
    extra: dict[str, float] = {}
    for key in outcomes[0].extra:
        extra[key] = mean(o.extra.get(key, 0.0) for o in outcomes)
    return FigurePoint(
        dataset="",  # filled by caller
        x=float(x),
        algorithm=algorithm,
        seconds=mean(o.wall_seconds for o in outcomes),
        cells_scanned=mean(o.cells_scanned for o in outcomes),
        sample_fraction=mean(o.sample_fraction for o in outcomes),
        accuracy=mean(o.accuracy for o in outcomes),
        extra=extra,
    )


def run_figure(
    figure_id: str,
    *,
    datasets: list[str] | None = None,
    scale: float = 1.0,
    num_targets: int = 2,
    seed: int = 0,
    target_mode: str = "engineered",
) -> FigureRun:
    """Execute one paper figure over the synthetic dataset analogues.

    Parameters
    ----------
    figure_id:
        ``"fig1"`` … ``"fig12"`` (see :data:`FIGURES`).
    datasets:
        Registry keys to run on (default: all four).
    scale:
        Row-count multiplier for dataset generation.
    num_targets:
        MI queries are averaged over this many target attributes (the
        paper uses 20 random targets; the defaults here keep single-core
        run times sane — raise it for closer replication).
    seed:
        Base seed for the samplers.
    target_mode:
        ``"engineered"`` (default) uses the datasets' planted MI group
        bases; ``"random"`` mimics the paper's random target choice —
        see :meth:`repro.synth.datasets.SyntheticDataset.random_targets`
        for why that regime is degenerate on these analogues.
    """
    if target_mode not in ("engineered", "random"):
        raise ParameterError(f"unknown target_mode {target_mode!r}")
    if figure_id not in FIGURES:
        raise ParameterError(
            f"unknown figure {figure_id!r}; available: {sorted(FIGURES)}"
        )
    spec = FIGURES[figure_id]
    keys = list(datasets) if datasets is not None else sorted(DATASETS)
    run = FigureRun(spec=spec, datasets=keys, scale=scale, num_targets=num_targets)
    for key in keys:
        dataset = load_dataset(key, scale=scale)
        if target_mode == "random":
            targets = list(dataset.random_targets(max(1, num_targets), seed=seed))
        else:
            targets = list(dataset.mi_targets)[: max(1, num_targets)]
        truth = GroundTruthCache()
        for x in spec.x_values:
            for algorithm in spec.algorithms:
                point = _run_point(
                    spec, dataset.store, targets, algorithm, x, seed, truth
                )
                point.dataset = key
                run.points.append(point)
    return run


def run_table2(*, scale: float = 1.0) -> list[dict[str, object]]:
    """The Table 2 analogue: dataset shapes (ours vs. the paper's)."""
    return dataset_summary(scale=scale)
