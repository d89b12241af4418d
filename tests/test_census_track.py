"""End-to-end tests of the census workload track.

Four layers, mirroring the track's promises:

* **end to end** — every registered scenario runs from a manifested
  dataset through preprocessing, plan execution, and exact scoring;
* **guarantee audit** — each scenario runs over many seeds and the
  empirical Definition 5/6 violation rate is held to the per-query
  failure budget ``p_f`` (with ``p_f = 1/N`` even one violation over
  this audit would exceed the bound, so the assertion is zero);
* **golden artifacts** — the correlated scenario's plan trace and its
  provenance manifest are pinned byte-for-byte under ``tests/golden/``
  (regenerate with ``--update-golden``); the directory-wide checks in
  ``test_golden_traces.py`` and ``scripts/check_trace_schema.py`` pick
  both up automatically;
* **cache identity** — the manifest's sha256 is the same dataset
  fingerprint the plan cache partitions on, so a cache warmed under one
  manifest is reused (bit-identically) by any regeneration of it.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.baselines import exact_filter_entropy, exact_top_k_entropy
from repro.cache import PlanCache, partition_filename
from repro.core.plan import PlanExecutor
from repro.data.backends import CountingBackend
from repro.data.filters import partition_by_support
from repro.durability.checkpoint import store_fingerprint
from repro.exceptions import ParameterError
from repro.experiments.workloads import (
    census_plan,
    render_track,
    run_census_applications,
    run_census_track,
    run_scenario,
    save_track_report,
)
from repro.obs import JsonlSink
from repro.synth.census import SCENARIOS, generate_census, manifest_json

GOLDEN_DIR = Path(__file__).parent / "golden"
SCALE = 0.01  # ~512-600 rows per dataset: full track in well under a second
GOLDEN_SEED = 7
GOLDEN_SCENARIO = "correlated"
AUDIT_SEEDS = tuple(range(20))


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------
def test_track_runs_every_scenario_end_to_end() -> None:
    report = run_census_track(seeds=(0,), scale=SCALE)
    assert report.scenarios == tuple(SCENARIOS)
    assert len(report.outcomes) == len(SCENARIOS)
    for outcome in report.outcomes:
        scenario = SCENARIOS[outcome.scenario]
        assert outcome.fingerprint  # manifest sha256 travels with the run
        assert len(outcome.queries) == len(scenario.queries)
        # Preprocessing accounting: kept + dropped partition the schema.
        names = tuple(s.name for s in scenario.columns)
        assert tuple(
            n for n in names if n not in outcome.dropped_columns
        ) == outcome.kept_columns
        for query in outcome.queries:
            assert 0.0 <= query.accuracy <= 1.0
            assert 0.0 <= query.precision <= 1.0
            assert query.cells >= 0
            assert query.exact_cells > 0
    # The exact baseline's cost, recomputed straight from the exact
    # entropy scans over the compiled plan, matches what the track
    # reports for the entropy-only scenarios.
    entropy_only = [
        o for o in report.outcomes
        if all(q.score == "entropy" for q in o.queries)
    ]
    assert [o.scenario for o in entropy_only] == ["skewed", "threshold"]
    for outcome in entropy_only:
        dataset = generate_census(outcome.scenario, seed=0, scale=SCALE)
        kept, _dropped = partition_by_support(dataset.store)
        exact_cells = 0
        for spec in census_plan(dataset.scenario, kept).specs:
            assert spec.attributes is not None
            candidates = list(spec.attributes)
            if spec.kind == "top_k":
                assert spec.k is not None
                exact = exact_top_k_entropy(kept, spec.k, attributes=candidates)
            else:
                assert spec.threshold is not None
                exact = exact_filter_entropy(
                    kept, spec.threshold, attributes=candidates
                )
            exact_cells += exact.stats.cells_scanned
        assert exact_cells == outcome.exact_cells


def test_scenario_threshold_columns_are_dropped_before_planning() -> None:
    outcome = run_scenario("threshold", seed=0, scale=SCALE)
    assert outcome.dropped_columns == ("just_over", "far_over")
    for query in outcome.queries:
        for name in query.answer:
            assert name not in outcome.dropped_columns


def test_run_census_track_parameter_validation() -> None:
    with pytest.raises(ParameterError, match="seed"):
        run_census_track(seeds=())
    with pytest.raises(ParameterError, match="scenario"):
        run_census_track(scenarios=[])


def test_render_and_save_track_report(tmp_path: Path) -> None:
    report = run_census_track(
        scenarios=["correlated"], seeds=(0, 1), scale=SCALE
    )
    text = render_track(report)
    assert "correlated" in text and "corr_mi_top3" in text
    assert f"violations={report.violation_count}" in text
    path = save_track_report(report, tmp_path / "track.json")
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["scenarios"] == ["correlated"]
    assert payload["total_queries"] == report.total_queries
    assert len(payload["outcomes"]) == 2


def test_applications_layer_on_census_data() -> None:
    result = run_census_applications(
        "correlated", seed=0, scale=0.05, num_features=3, max_depth=2
    )
    assert result["label"] == "ancestry"
    assert 0.0 <= float(str(result["selection_overlap"])) <= 1.0
    # Both engines fit on the same kept store; exact is the ceiling the
    # SWOPE-backed tree must effectively match on this easy scenario.
    assert result["tree_accuracy_swope"] == pytest.approx(
        float(str(result["tree_accuracy_exact"])), abs=0.05
    )


def test_applications_requires_an_mi_target() -> None:
    with pytest.raises(ParameterError, match="no MI target"):
        run_census_applications("skewed", scale=SCALE)


# ----------------------------------------------------------------------
# Guarantee-violation audit
# ----------------------------------------------------------------------
def test_guarantee_violation_rate_within_failure_budget() -> None:
    # Each scenario x 20 seeds. With the default p_f = 1/N (N >= 512),
    # the expected violation count over this audit is ~< 0.2, so a single
    # observed violation would already exceed the budget many times over:
    # the empirical rate must be exactly zero.
    report = run_census_track(seeds=AUDIT_SEEDS, scale=SCALE)
    assert report.total_queries == len(AUDIT_SEEDS) * sum(
        len(s.queries) for s in SCENARIOS.values()
    )
    violating = [
        (o.scenario, o.seed, q.name, q.violations)
        for o in report.outcomes
        for q in o.queries
        if q.violations
    ]
    assert not violating, violating
    assert report.violation_rate <= report.max_failure_probability


# ----------------------------------------------------------------------
# Golden artifacts
# ----------------------------------------------------------------------
def _golden_trace_lines(backend: CountingBackend | None = None) -> list[str]:
    dataset = generate_census(GOLDEN_SCENARIO, seed=GOLDEN_SEED, scale=SCALE)
    kept, _dropped = partition_by_support(dataset.store)
    buffer = io.StringIO()
    sink = JsonlSink(buffer)
    executor = PlanExecutor(kept, seed=GOLDEN_SEED, backend=backend)
    executor.execute(census_plan(dataset.scenario, kept), trace=sink)
    sink.close()
    return buffer.getvalue().splitlines()


def test_census_plan_trace_matches_golden(update_golden: bool) -> None:
    lines = _golden_trace_lines()
    path = GOLDEN_DIR / f"plan_census_{GOLDEN_SCENARIO}.jsonl"
    if update_golden:
        path.parent.mkdir(exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
        return
    assert path.exists(), (
        f"golden file {path} missing; generate with --update-golden"
    )
    golden = path.read_text().splitlines()
    header = json.loads(golden[0])
    assert header["event"] == "header"
    assert lines[1:] == golden[1:], (
        "census plan trace drifted from the golden; if the change is"
        " intentional, regenerate with --update-golden"
    )


def test_census_plan_trace_identical_across_backends(sharded_backend) -> None:
    assert _golden_trace_lines() == _golden_trace_lines(sharded_backend)


def test_census_manifest_matches_golden(update_golden: bool) -> None:
    dataset = generate_census(GOLDEN_SCENARIO, seed=GOLDEN_SEED, scale=SCALE)
    rendered = manifest_json(dataset.manifest)
    path = GOLDEN_DIR / f"census_{GOLDEN_SCENARIO}.manifest.json"
    if update_golden:
        path.parent.mkdir(exist_ok=True)
        path.write_text(rendered, encoding="utf-8")
        return
    assert path.exists(), (
        f"golden manifest {path} missing; generate with --update-golden"
    )
    assert path.read_text(encoding="utf-8") == rendered, (
        "census manifest drifted from the golden; the generators changed"
        " without a manifest schema bump — regenerate with --update-golden"
    )


# ----------------------------------------------------------------------
# Cache identity: manifest sha256 == plan-cache dataset fingerprint
# ----------------------------------------------------------------------
def test_plan_cache_partitions_on_the_manifest_fingerprint() -> None:
    # The correlated scenario drops nothing, so the store that reaches
    # the executor is exactly the manifested dataset: its cache partition
    # key IS the manifest sha256. A regeneration from the manifest lands
    # in the same partition and is served the same bits.
    dataset = generate_census(GOLDEN_SCENARIO, seed=GOLDEN_SEED, scale=SCALE)
    kept, dropped = partition_by_support(dataset.store)
    assert dropped == ()
    assert store_fingerprint(kept) == dataset.fingerprint

    cache = PlanCache()
    plan = census_plan(dataset.scenario, kept)
    cold = PlanExecutor(kept, seed=GOLDEN_SEED, cache=cache)
    cold_result = cold.execute(plan)
    keys = list(cache._partitions)
    assert len(keys) == 1
    fingerprint, shuffle = keys[0]
    assert fingerprint == dataset.fingerprint
    # The on-disk partition name is a pure function of the manifest
    # fingerprint + shuffle, so persisted cache state survives a
    # regenerate-from-manifest round trip too.
    assert partition_filename(fingerprint, shuffle) == partition_filename(
        dataset.fingerprint, shuffle
    )

    # Warm run on a regenerated (bit-identical) dataset: every query is
    # answered from the cache with the exact same scores and no new scan.
    again = generate_census(GOLDEN_SCENARIO, seed=GOLDEN_SEED, scale=SCALE)
    assert again.fingerprint == dataset.fingerprint
    warm = PlanExecutor(again.store, seed=GOLDEN_SEED, cache=cache)
    warm_result = warm.execute(census_plan(again.scenario, again.store))
    assert warm_result.stats.cells_scanned == 0
    for spec in plan.specs:
        assert spec.name is not None
        cold_answer = cold_result[spec.name]
        warm_answer = warm_result[spec.name]
        assert tuple(warm_answer.attributes) == tuple(cold_answer.attributes)
        assert warm_answer.estimates == cold_answer.estimates
