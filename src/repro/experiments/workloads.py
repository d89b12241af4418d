"""The census workload track: scenarios → plans → accuracy vs. exact.

The figure harness (:mod:`repro.experiments.figures`) reproduces the
paper's evaluation on clean parametric datasets. This module is the
*second* track: it drives the census-shaped scenarios of
:mod:`repro.synth.census` — Zipf-skewed identifiers, correlated
demographic groups, missing/noised extracts, supports straddling the
u = 1000 cutoff — end to end through the real production path:

1. generate the manifested dataset and verify its sha256 round-trip;
2. apply the paper's preprocessing
   (:func:`repro.data.filters.partition_by_support`), keeping account of
   what was dropped;
3. compile the scenario's declarative query batch into a
   :class:`~repro.core.plan.QueryPlan` and execute it on a shared
   :class:`~repro.core.plan.PlanExecutor`;
4. score every answer against exact full-scan baselines — set accuracy
   (the paper's Figures 2/4/6/8 methodology) *and* the Definition 5/6
   guarantee contracts, reporting the empirical guarantee-violation rate
   against the per-query failure budget ``p_f``;
5. optionally run the applications layer (feature selection, the
   entropy decision tree) on the same scenarios.

Everything here is deterministic given ``(scenario, seed, scale)``
except wall-clock fields, which reports carry for context but tests must
not compare.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

from repro.applications.decision_tree import EntropyTreeClassifier
from repro.applications.feature_selection import top_relevance_select
from repro.core.engine import default_failure_probability
from repro.core.plan import PlanExecutor, QueryPlan, QuerySpec, plan_queries
from repro.core.results import FilterResult, TopKResult
from repro.data.column_store import ColumnStore
from repro.data.filters import partition_by_support
from repro.durability.atomic import atomic_write_text
from repro.exceptions import ParameterError
from repro.experiments.accuracy import (
    check_filter_guarantee,
    check_top_k_guarantee,
    filter_precision_recall,
    top_k_accuracy,
)
from repro.experiments.runner import (
    GroundTruthCache,
    exact_filter_entropy,
    exact_filter_mutual_information,
    exact_top_k_entropy,
    exact_top_k_mutual_information,
)
from repro.synth.census import (
    SCENARIOS,
    CensusDataset,
    CensusScenario,
    generate_census,
    get_scenario,
    verify_manifest,
)

__all__ = [
    "ScenarioQueryReport",
    "ScenarioOutcome",
    "CensusTrackReport",
    "census_plan",
    "run_scenario",
    "run_census_track",
    "run_census_applications",
    "render_track",
    "save_track_report",
]


# ----------------------------------------------------------------------
# Report shapes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioQueryReport:
    """One query of a scenario plan, scored against its exact baseline.

    ``accuracy`` is the paper's headline number: top-k set accuracy for
    top-k queries, recall of the exact answer set for filters.
    ``violations`` lists Definition 5/6 contract breaches (empty =
    guarantee held). ``cells`` is the query's *incremental* share of the
    shared scan; ``exact_cells`` is what the exact baseline paid for the
    same answer.
    """

    name: str
    kind: str
    score: str
    epsilon: float
    answer: tuple[str, ...]
    exact_answer: tuple[str, ...]
    accuracy: float
    precision: float
    violations: tuple[str, ...]
    cells: int
    exact_cells: int

    @property
    def guarantee_held(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class ScenarioOutcome:
    """One (scenario, seed) execution of the census track."""

    scenario: str
    seed: int
    scale: float
    num_rows: int
    fingerprint: str
    kept_columns: tuple[str, ...]
    dropped_columns: tuple[str, ...]
    failure_probability: float
    queries: tuple[ScenarioQueryReport, ...]
    cells_scanned: int
    exact_cells: int
    wall_seconds: float
    exact_wall_seconds: float

    @property
    def violation_count(self) -> int:
        return sum(1 for q in self.queries if q.violations)


@dataclass(frozen=True)
class CensusTrackReport:
    """Aggregate of the census track over scenarios × seeds.

    ``violation_rate`` is the empirical fraction of queries whose
    returned answer broke its Definition 5/6 contract; the paper's
    guarantee says this stays below ``max_failure_probability`` (the
    largest per-query ``p_f`` any outcome ran with — ``1/N`` by
    default).
    """

    scale: float
    seeds: tuple[int, ...]
    scenarios: tuple[str, ...]
    outcomes: tuple[ScenarioOutcome, ...] = field(repr=False)

    @property
    def total_queries(self) -> int:
        return sum(len(o.queries) for o in self.outcomes)

    @property
    def violation_count(self) -> int:
        return sum(o.violation_count for o in self.outcomes)

    @property
    def violation_rate(self) -> float:
        total = self.total_queries
        return self.violation_count / total if total else 0.0

    @property
    def max_failure_probability(self) -> float:
        return max((o.failure_probability for o in self.outcomes), default=0.0)


# ----------------------------------------------------------------------
# Plan compilation and scoring
# ----------------------------------------------------------------------
def census_plan(scenario: CensusScenario, store: ColumnStore) -> QueryPlan:
    """Compile a scenario's declarative query batch against ``store``."""
    specs = [QuerySpec.from_dict(entry) for entry in scenario.queries]
    return plan_queries(store, specs)


def _restricted(
    scores: Mapping[str, float], candidates: Sequence[str]
) -> dict[str, float]:
    """Exact scores limited to the plan-resolved candidate set."""
    return {name: float(scores[name]) for name in candidates}


def _score_query(
    spec: QuerySpec,
    result: Union[TopKResult, FilterResult],
    store: ColumnStore,
    truth: GroundTruthCache,
    cells: int,
) -> ScenarioQueryReport:
    assert spec.attributes is not None and spec.epsilon is not None
    candidates = list(spec.attributes)
    if spec.score == "entropy":
        exact_scores = _restricted(truth.entropies(store), candidates)
    else:
        assert spec.target is not None
        exact_scores = _restricted(
            truth.mutual_informations(store, spec.target), candidates
        )
    if isinstance(result, TopKResult):
        assert spec.k is not None
        accuracy = top_k_accuracy(
            list(result.attributes), exact_scores, spec.k
        )
        precision = accuracy
        violations = tuple(
            check_top_k_guarantee(result, exact_scores, spec.epsilon)
        )
        if spec.score == "entropy":
            exact_result: Union[TopKResult, FilterResult] = exact_top_k_entropy(
                store, spec.k, attributes=candidates
            )
        else:
            assert spec.target is not None
            exact_result = exact_top_k_mutual_information(
                store, spec.target, spec.k, candidates=candidates
            )
    else:
        assert spec.threshold is not None
        pr = filter_precision_recall(
            list(result.attributes), exact_scores, spec.threshold
        )
        accuracy = pr.recall
        precision = pr.precision
        violations = tuple(
            check_filter_guarantee(result, exact_scores, spec.epsilon)
        )
        if spec.score == "entropy":
            exact_result = exact_filter_entropy(
                store, spec.threshold, attributes=candidates
            )
        else:
            assert spec.target is not None
            exact_result = exact_filter_mutual_information(
                store, spec.target, spec.threshold, candidates=candidates
            )
    assert spec.name is not None
    return ScenarioQueryReport(
        name=spec.name,
        kind=spec.kind,
        score=spec.score,
        epsilon=float(spec.epsilon),
        answer=tuple(result.attributes),
        exact_answer=tuple(exact_result.attributes),
        accuracy=accuracy,
        precision=precision,
        violations=violations,
        cells=cells,
        exact_cells=exact_result.stats.cells_scanned,
    )


def run_scenario(
    scenario: Union[str, CensusScenario],
    *,
    seed: int = 0,
    scale: float = 1.0,
    truth: GroundTruthCache | None = None,
    dataset: CensusDataset | None = None,
) -> ScenarioOutcome:
    """Run one scenario end to end and score it against exact baselines.

    Parameters
    ----------
    scenario:
        A registry key or a :class:`~repro.synth.census.CensusScenario`.
    seed:
        Drives both generation and the executor's shuffle, so one number
        pins the whole run.
    scale:
        Row-count multiplier forwarded to generation.
    truth:
        Optional shared :class:`~repro.experiments.runner.GroundTruthCache`
        (pass one across repeated calls on the same dataset object).
    dataset:
        Pre-generated dataset to reuse (must match ``scenario``/``seed``/
        ``scale``); generated when omitted.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if dataset is None:
        dataset = generate_census(scenario, seed=seed, scale=scale)
    verify_manifest(dataset.manifest, dataset.store)
    kept, dropped = partition_by_support(dataset.store)
    plan = census_plan(scenario, kept)
    executor = PlanExecutor(kept, seed=seed)
    started = time.perf_counter()
    plan_result = executor.execute(plan)
    wall = time.perf_counter() - started
    if truth is None:
        truth = GroundTruthCache()
    exact_started = time.perf_counter()
    reports = []
    for spec in plan.specs:
        assert spec.name is not None
        reports.append(
            _score_query(
                spec,
                plan_result[spec.name],
                kept,
                truth,
                plan_result.stats.per_query_cells.get(spec.name, 0),
            )
        )
    exact_wall = time.perf_counter() - exact_started
    return ScenarioOutcome(
        scenario=scenario.key,
        seed=seed,
        scale=float(scale),
        num_rows=kept.num_rows,
        fingerprint=dataset.fingerprint,
        kept_columns=kept.attributes,
        dropped_columns=dropped,
        failure_probability=default_failure_probability(kept.num_rows),
        queries=tuple(reports),
        cells_scanned=plan_result.stats.cells_scanned,
        exact_cells=sum(r.exact_cells for r in reports),
        wall_seconds=wall,
        exact_wall_seconds=exact_wall,
    )


def run_census_track(
    scenarios: Iterable[Union[str, CensusScenario]] | None = None,
    *,
    seeds: Sequence[int] = (0,),
    scale: float = 1.0,
) -> CensusTrackReport:
    """Run the full census track: every scenario × every seed.

    Ground truth is shared per dataset: each (scenario, seed) pair
    generates once and scores all its queries against one exact scan.
    """
    if not seeds:
        raise ParameterError("run_census_track needs at least one seed")
    resolved = [
        get_scenario(s) if isinstance(s, str) else s
        for s in (scenarios if scenarios is not None else SCENARIOS)
    ]
    if not resolved:
        raise ParameterError("run_census_track needs at least one scenario")
    outcomes = []
    for scenario in resolved:
        for seed in seeds:
            outcomes.append(run_scenario(scenario, seed=seed, scale=scale))
    return CensusTrackReport(
        scale=float(scale),
        seeds=tuple(int(s) for s in seeds),
        scenarios=tuple(s.key for s in resolved),
        outcomes=tuple(outcomes),
    )


# ----------------------------------------------------------------------
# Applications layer on census data
# ----------------------------------------------------------------------
def run_census_applications(
    scenario: Union[str, CensusScenario] = "correlated",
    *,
    seed: int = 0,
    scale: float = 1.0,
    num_features: int = 3,
    max_depth: int = 2,
) -> dict[str, object]:
    """Drive the applications layer end to end on a census scenario.

    Runs SWOPE-backed and exact feature selection against the scenario's
    first MI target, plus the entropy decision tree with both engines,
    and reports the agreement between them. The scenario must declare at
    least one MI target (the label column).
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if not scenario.mi_targets:
        raise ParameterError(
            f"scenario {scenario.key!r} declares no MI target to use as"
            " the applications label"
        )
    label = scenario.mi_targets[0]
    dataset = generate_census(scenario, seed=seed, scale=scale)
    kept, dropped = partition_by_support(dataset.store)
    swope_sel = top_relevance_select(
        kept, label, num_features, engine="swope", seed=seed
    )
    exact_sel = top_relevance_select(kept, label, num_features, engine="exact")
    overlap = len(set(swope_sel.features) & set(exact_sel.features))
    trees = {}
    for engine in ("swope", "exact"):
        tree = EntropyTreeClassifier(
            max_depth=max_depth, engine=engine, seed=seed
        ).fit(kept, label)
        trees[engine] = tree.accuracy(kept)
    return {
        "scenario": scenario.key,
        "seed": seed,
        "label": label,
        "fingerprint": dataset.fingerprint,
        "dropped_columns": list(dropped),
        "selected_swope": list(swope_sel.features),
        "selected_exact": list(exact_sel.features),
        "selection_overlap": overlap / num_features,
        "selection_cells_swope": swope_sel.cells_scanned,
        "selection_cells_exact": exact_sel.cells_scanned,
        "tree_accuracy_swope": trees["swope"],
        "tree_accuracy_exact": trees["exact"],
    }


# ----------------------------------------------------------------------
# Rendering and persistence
# ----------------------------------------------------------------------
def render_track(report: CensusTrackReport) -> str:
    """Human-readable summary table of a track report."""
    lines = [
        f"census track: scale={report.scale:g}"
        f" seeds={list(report.seeds)}",
        f"{'scenario':<12} {'seed':>4} {'query':<14} {'acc':>6} {'guar':>5}"
        f" {'cells':>10} {'exact':>10}",
    ]
    for outcome in report.outcomes:
        for query in outcome.queries:
            lines.append(
                f"{outcome.scenario:<12} {outcome.seed:>4} {query.name:<14}"
                f" {query.accuracy:>6.3f} {'ok' if query.guarantee_held else 'VIOL':>5}"
                f" {query.cells:>10} {query.exact_cells:>10}"
            )
    lines.append(
        f"queries={report.total_queries} violations={report.violation_count}"
        f" rate={report.violation_rate:.6f}"
        f" p_f<={report.max_failure_probability:.6f}"
    )
    return "\n".join(lines)


def save_track_report(
    report: CensusTrackReport, path: Union[str, Path]
) -> Path:
    """Durably persist a track report as JSON (atomic write-rename)."""
    payload = {
        "scale": report.scale,
        "seeds": list(report.seeds),
        "scenarios": list(report.scenarios),
        "total_queries": report.total_queries,
        "violation_count": report.violation_count,
        "violation_rate": report.violation_rate,
        "max_failure_probability": report.max_failure_probability,
        "outcomes": [asdict(outcome) for outcome in report.outcomes],
    }
    return atomic_write_text(
        path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
