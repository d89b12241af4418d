"""Information-theoretic feature selection on top of the SWOPE queries.

The paper's introduction motivates the top-k and filtering queries with
feature selection (refs [2, 5, 12, 13, 19, 20, 24, 26, 31, 39]). This
module packages the two classic selectors whose inner loops are exactly
those queries:

* :func:`top_relevance_select` — Max-Relevance: the k features with the
  highest MI against the label (one SWOPE top-k query);
* :func:`mrmr_select` — greedy max-Relevance min-Redundancy (Peng et al.,
  ref [26]): SWOPE supplies the relevance shortlist, redundancy is then
  refined over the (small) shortlist only;
* :func:`threshold_select` — keep every feature whose MI against the
  label clears a threshold (one SWOPE filtering query), the style of
  refs [19, 24, 39].

Each function takes ``engine="swope"`` (default) or ``engine="exact"``
so callers can trade guarantees for certainty, and returns a
:class:`SelectionResult` with the chosen features, their scores, and the
sampling cost actually paid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.exact import (
    exact_mutual_information,
    exact_mutual_informations,
)
from repro.core.swope import (
    swope_filter_mutual_information,
    swope_top_k_mutual_information,
)
from repro.data.column_store import ColumnStore
from repro.exceptions import ParameterError

__all__ = [
    "SelectionResult",
    "mrmr_select",
    "threshold_select",
    "top_relevance_select",
]

_ENGINES = ("swope", "exact")


@dataclass
class SelectionResult:
    """Outcome of a feature-selection run.

    Attributes
    ----------
    features:
        Selected feature names, in selection order (for greedy methods)
        or decreasing score order (for one-shot methods).
    scores:
        The relevance score backing each selection (estimated MI for the
        SWOPE engine, exact MI for the exact engine).
    cells_scanned:
        Total dataset cells read, including redundancy refinement.
    engine:
        Which engine produced the result.
    """

    features: list[str]
    scores: dict[str, float]
    cells_scanned: int
    engine: str
    details: dict[str, float] = field(default_factory=dict)


def _check_engine(engine: str) -> None:
    if engine not in _ENGINES:
        raise ParameterError(f"unknown engine {engine!r}; expected one of {_ENGINES}")


def top_relevance_select(
    store: ColumnStore,
    label: str,
    num_features: int,
    *,
    engine: str = "swope",
    epsilon: float = 0.5,
    seed: int | None = 0,
) -> SelectionResult:
    """Max-Relevance: the ``num_features`` attributes most informative
    about ``label``.

    With ``engine="swope"`` this is a single approximate MI top-k query;
    each returned feature's MI is within the Definition 5 contract of the
    true top scores. With ``engine="exact"`` it is a full scan.
    """
    _check_engine(engine)
    if num_features < 1:
        raise ParameterError(f"num_features must be >= 1, got {num_features}")
    if engine == "swope":
        result = swope_top_k_mutual_information(
            store, label, num_features, epsilon=epsilon, seed=seed
        )
        return SelectionResult(
            features=list(result.attributes),
            scores={e.attribute: e.estimate for e in result.estimates},
            cells_scanned=result.stats.cells_scanned,
            engine=engine,
        )
    scores = exact_mutual_informations(store, label)
    ranked = sorted(scores, key=lambda a: (-scores[a], a))[:num_features]
    cells = (1 + 3 * len(scores)) * store.num_rows
    return SelectionResult(
        features=ranked,
        scores={a: scores[a] for a in ranked},
        cells_scanned=cells,
        engine=engine,
    )


def threshold_select(
    store: ColumnStore,
    label: str,
    threshold: float,
    *,
    engine: str = "swope",
    epsilon: float = 0.5,
    seed: int | None = 0,
) -> SelectionResult:
    """Keep every feature with ``I(label, feature) >= threshold``.

    With the SWOPE engine the answer follows the Definition 6 contract:
    features clearly above ``(1+ε)η`` are guaranteed in, clearly below
    ``(1-ε)η`` guaranteed out.
    """
    _check_engine(engine)
    if engine == "swope":
        result = swope_filter_mutual_information(
            store, label, threshold, epsilon=epsilon, seed=seed
        )
        return SelectionResult(
            features=list(result.attributes),
            scores={
                a: result.estimates[a].estimate for a in result.attributes
            },
            cells_scanned=result.stats.cells_scanned,
            engine=engine,
        )
    scores = exact_mutual_informations(store, label)
    kept = sorted(
        (a for a, s in scores.items() if s >= threshold),
        key=lambda a: (-scores[a], a),
    )
    cells = (1 + 3 * len(scores)) * store.num_rows
    return SelectionResult(
        features=kept,
        scores={a: scores[a] for a in kept},
        cells_scanned=cells,
        engine=engine,
    )


def mrmr_select(
    store: ColumnStore,
    label: str,
    num_features: int,
    *,
    engine: str = "swope",
    shortlist: int | None = None,
    epsilon: float = 0.5,
    seed: int | None = 0,
) -> SelectionResult:
    """Greedy max-Relevance min-Redundancy selection (mRMR, ref [26]).

    At each step the feature maximising
    ``relevance(f) − mean(I(f, already selected))`` is added.

    With ``engine="swope"``, relevance comes from one approximate MI
    top-``shortlist`` query (default shortlist: ``2 · num_features + 2``)
    and the greedy refinement — including exact pairwise redundancy —
    runs only over that shortlist; with ``engine="exact"`` relevance is a
    full scan over all candidates.
    """
    _check_engine(engine)
    if num_features < 1:
        raise ParameterError(f"num_features must be >= 1, got {num_features}")
    if shortlist is None:
        shortlist = 2 * num_features + 2
    if shortlist < num_features:
        raise ParameterError(
            f"shortlist ({shortlist}) must be >= num_features ({num_features})"
        )
    cells = 0
    if engine == "swope":
        top = swope_top_k_mutual_information(
            store, label, shortlist, epsilon=epsilon, seed=seed
        )
        relevance = {e.attribute: e.estimate for e in top.estimates}
        candidates = list(top.attributes)
        cells += top.stats.cells_scanned
    else:
        relevance = exact_mutual_informations(store, label)
        candidates = sorted(relevance, key=lambda a: (-relevance[a], a))
        cells += (1 + 3 * len(relevance)) * store.num_rows

    selected: list[str] = []
    redundancy_cache: dict[tuple[str, str], float] = {}

    def pair_mi(a: str, b: str) -> float:
        nonlocal cells
        key = (a, b) if a <= b else (b, a)
        if key not in redundancy_cache:
            redundancy_cache[key] = exact_mutual_information(store, key[0], key[1])
            cells += 3 * store.num_rows
        return redundancy_cache[key]

    while len(selected) < num_features and candidates:
        best_name: str | None = None
        best_score = float("-inf")
        for name in candidates:
            if selected:
                redundancy = sum(pair_mi(name, s) for s in selected) / len(selected)
            else:
                redundancy = 0.0
            score = relevance[name] - redundancy
            if score > best_score:
                best_name, best_score = name, score
        assert best_name is not None
        selected.append(best_name)
        candidates.remove(best_name)

    return SelectionResult(
        features=selected,
        scores={a: relevance[a] for a in selected},
        cells_scanned=cells,
        engine=engine,
        details={"shortlist": float(shortlist)},
    )
