"""Tests for repro.core.plan: specs, the planner, and the shared executor.

Five layers:

* spec/plan validation — structural errors are typed ``PlanError``s
  (duplicates, conflicting fields, bad thresholds, MI target listed
  among its own candidates), while store-resolution errors keep the
  legacy ``SchemaError``/``ParameterError`` types and messages;
* cost model — the batch estimates equal a per-candidate walk of the
  scalar ``entropy_interval`` exactly, and one plan evaluates each
  Lemma 3 term once;
* bit-identity — every single-query plan through
  :meth:`~repro.core.plan.PlanExecutor.execute` must reproduce the
  matching ``swope_*`` call exactly (same seed; pruned,
  sequential, and cold/warm cached runs too), and a mixed four-query
  plan must reproduce the same four queries run one by one through a
  fresh executor's query methods; a plan whose entropy filter carries
  joint deltas to a later MI query matches the same plan run without
  the carry, answers, cells and trace bytes alike;
* resilience — plan-wide budgets hand each query the residual, every
  query still answers (with its own guarantee status), and strict mode
  raises on the first truncation while still ratcheting the floor;
* observability — the plan event envelope and the plan metrics
  reconcile with the executor's own accounting.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cache import PlanCache
from repro.core import cost
from repro.core.bounds import bias_bound, entropy_interval, permutation_half_width
from repro.core.budget import CancellationToken, QueryBudget
from repro.core.cost import CostModel
from repro.core.plan import (
    PAPER_EPSILON,
    PlanExecutor,
    QuerySpec,
    load_plan,
    plan_queries,
)
from repro.core.schedule import SampleSchedule
from repro.core.swope import (
    swope_filter_entropy,
    swope_filter_mutual_information,
    swope_top_k_entropy,
    swope_top_k_mutual_information,
)
from repro.data.backends import NumpyBackend
from repro.data.column_store import ColumnStore
from repro.exceptions import (
    DataFormatError,
    ParameterError,
    PlanError,
    QueryInterruptedError,
    SchemaError,
)
from repro.obs import InMemorySink, MetricsRegistry
from repro.obs.sinks import serialize_event
from repro.testing.chaos import plan_fingerprint
from tests.test_golden_traces import _golden_store
from tests.test_golden_traces import _mixed_specs as _golden_mixed_specs

SEED = 7


@pytest.fixture()
def store(rng: np.random.Generator) -> ColumnStore:
    n = 3000
    target = rng.integers(0, 6, n)
    keep = rng.random(n) < 0.7
    return ColumnStore(
        {
            "wide": rng.integers(0, 64, n),
            "medium": rng.integers(0, 12, n),
            "narrow": rng.integers(0, 3, n),
            "target": target,
            "noisy": np.where(keep, target, rng.integers(0, 6, n)),
            "independent": rng.integers(0, 6, n),
        }
    )


def _mixed_specs() -> list[QuerySpec]:
    return [
        QuerySpec(kind="top_k", score="entropy", k=2, prune=False, name="tk_h"),
        QuerySpec(kind="filter", score="entropy", threshold=2.0, name="f_h"),
        QuerySpec(
            kind="top_k", score="mutual_information", k=2, target="target",
            prune=False, name="tk_mi",
        ),
        QuerySpec(
            kind="filter", score="mutual_information", threshold=0.5,
            target="target", name="f_mi",
        ),
    ]


def _interleaved_store() -> ColumnStore:
    """``plan_mixed``'s out-of-core data shape at N = 200k.

    A base column, three noisy copies of it and twelve independent
    columns of varied support. At this N the cost order of
    :func:`_interleaved_specs` runs an entropy filter between the two MI
    queries on ``base``, which extends twelve candidates past their
    joints' frontier.
    """
    rng = np.random.default_rng(2021)
    n = 200_000
    base = rng.integers(0, 8, n)
    data = {"base": base}
    for i, keep in enumerate((0.85, 0.6, 0.4)):
        data[f"noisy{i}"] = np.where(
            rng.random(n) < keep, base, rng.integers(0, 8, n)
        )
    for i, support in enumerate((3, 6, 12, 16, 24, 32, 48, 64, 9, 14, 20, 28)):
        data[f"col{i:02d}"] = rng.integers(0, support, n)
    return ColumnStore(data)


def _interleaved_specs() -> list[QuerySpec]:
    return [
        QuerySpec(kind="top_k", score="entropy", k=3, name="top_entropy"),
        QuerySpec(kind="filter", score="entropy", threshold=2.0, name="high_entropy"),
        QuerySpec(
            kind="top_k", score="mutual_information", k=3, target="base",
            name="top_mi",
        ),
        QuerySpec(
            kind="filter", score="mutual_information", threshold=0.2,
            target="base", name="relevant_mi",
        ),
    ]


def _assert_results_equal(left, right) -> None:
    """Bit-identity on everything deterministic about a query result."""
    assert left.attributes == right.attributes
    assert left.estimates == right.estimates
    assert left.guarantee == right.guarantee
    assert left.stats.iterations == right.stats.iterations
    assert left.stats.final_sample_size == right.stats.final_sample_size
    assert left.stats.population_size == right.stats.population_size
    assert left.stats.candidates_pruned == right.stats.candidates_pruned


# ----------------------------------------------------------------------
# QuerySpec validation
# ----------------------------------------------------------------------
class TestQuerySpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(PlanError):
            QuerySpec(kind="sample", score="entropy", k=1)

    def test_unknown_score_rejected(self):
        with pytest.raises(PlanError):
            QuerySpec(kind="top_k", score="gini", k=1)

    def test_top_k_needs_k(self):
        with pytest.raises(PlanError):
            QuerySpec(kind="top_k", score="entropy")

    def test_top_k_rejects_threshold(self):
        with pytest.raises(PlanError):
            QuerySpec(kind="top_k", score="entropy", k=2, threshold=1.0)

    def test_filter_needs_threshold(self):
        with pytest.raises(PlanError):
            QuerySpec(kind="filter", score="entropy")

    def test_filter_rejects_k(self):
        with pytest.raises(PlanError):
            QuerySpec(kind="filter", score="entropy", threshold=1.0, k=3)

    def test_mi_needs_target(self):
        with pytest.raises(PlanError):
            QuerySpec(kind="top_k", score="mutual_information", k=2)

    def test_entropy_rejects_target(self):
        with pytest.raises(PlanError):
            QuerySpec(kind="top_k", score="entropy", k=2, target="wide")

    def test_from_dict_resolves_combined_kinds(self):
        spec = QuerySpec.from_dict({"kind": "topk-mi", "k": 2, "target": "t"})
        assert (spec.kind, spec.score) == ("top_k", "mutual_information")
        spec = QuerySpec.from_dict({"kind": "filter-entropy", "threshold": 1.5})
        assert (spec.kind, spec.score) == ("filter", "entropy")

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(PlanError, match="unknown"):
            QuerySpec.from_dict({"kind": "topk-entropy", "k": 2, "kk": 3})

    def test_from_dict_type_checks(self):
        with pytest.raises(PlanError):
            QuerySpec.from_dict({"kind": "topk-entropy", "k": "two"})
        with pytest.raises(PlanError):
            QuerySpec.from_dict({"kind": "topk-entropy", "k": True})


# ----------------------------------------------------------------------
# load_plan
# ----------------------------------------------------------------------
class TestLoadPlan:
    def test_accepts_bare_list_and_envelope(self, tmp_path):
        entries = [{"kind": "topk-entropy", "k": 2}]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(entries))
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps({"queries": entries}))
        assert load_plan(bare) == load_plan(wrapped)

    def test_missing_file_is_data_format_error(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_plan(tmp_path / "nope.json")

    def test_invalid_json_is_data_format_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DataFormatError):
            load_plan(path)

    def test_bad_entry_is_plan_error(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text(json.dumps([{"kind": "topk-entropy"}]))  # missing k
        with pytest.raises(PlanError):
            load_plan(path)

    def test_committed_example_plan_loads(self):
        specs = load_plan("examples/plan_mixed.json")
        assert len(specs) == 4
        assert {s.kind for s in specs} == {"top_k", "filter"}


# ----------------------------------------------------------------------
# plan_queries
# ----------------------------------------------------------------------
class TestPlanQueries:
    def test_empty_plan_rejected(self, store):
        with pytest.raises(PlanError):
            plan_queries(store, [])

    def test_duplicate_names_rejected(self, store):
        specs = [
            QuerySpec(kind="top_k", score="entropy", k=1, name="q"),
            QuerySpec(kind="filter", score="entropy", threshold=1.0, name="q"),
        ]
        with pytest.raises(PlanError, match="duplicate query name"):
            plan_queries(store, specs)

    def test_same_query_twice_rejected(self, store):
        spec = QuerySpec(kind="top_k", score="entropy", k=2)
        with pytest.raises(PlanError, match="repeats an earlier query"):
            plan_queries(store, [spec, QuerySpec(kind="top_k", score="entropy", k=2)])

    def test_nonpositive_filter_threshold_rejected(self, store):
        for eta in (0.0, -1.0, float("nan")):
            spec = QuerySpec(kind="filter", score="entropy", threshold=eta)
            with pytest.raises(PlanError, match="finite and > 0"):
                plan_queries(store, [spec])

    def test_zero_threshold_still_legal_on_legacy_path(self, store):
        # The planner's η > 0 rule is a plan-level lint; the single-query
        # API keeps the paper's η ≥ 0 domain.
        result = swope_filter_entropy(store, 0.0, seed=SEED)
        assert result.attributes  # every attribute clears η = 0

    def test_mi_target_as_candidate_rejected(self, store):
        spec = QuerySpec(
            kind="top_k", score="mutual_information", k=1, target="target",
            attributes=("target", "noisy"),
        )
        with pytest.raises(PlanError, match="cannot\\s+also be a candidate"):
            plan_queries(store, [spec])

    def test_unknown_attributes_keep_schema_error(self, store):
        spec = QuerySpec(
            kind="top_k", score="entropy", k=1, attributes=("ghost",)
        )
        with pytest.raises(SchemaError, match="unknown attributes"):
            plan_queries(store, [spec])

    def test_epsilon_defaults_filled_from_paper(self, store):
        plan = plan_queries(store, _mixed_specs())
        assert {s.name: s.epsilon for s in plan.specs} == {
            "tk_h": PAPER_EPSILON[("top_k", "entropy")],
            "f_h": PAPER_EPSILON[("filter", "entropy")],
            "tk_mi": PAPER_EPSILON[("top_k", "mutual_information")],
            "f_mi": PAPER_EPSILON[("filter", "mutual_information")],
        }

    def test_cost_order_is_deterministic_and_recorded(self, store):
        plan = plan_queries(store, _mixed_specs())
        again = plan_queries(store, _mixed_specs())
        assert plan.order == "cost"
        assert plan.cost_model == "analytic"
        assert plan.names == again.names
        assert plan.estimated_cells == again.estimated_cells
        # submission_names records the caller's order; the scheduled
        # specs are a (cheapest-first) permutation of it.
        assert plan.submission_names == ("tk_h", "f_h", "tk_mi", "f_mi")
        assert sorted(plan.names) == sorted(plan.submission_names)
        assert len(plan.estimated_cells) == 4
        assert list(plan.estimated_cells) == sorted(plan.estimated_cells)
        # Entropy queries are predicted cheaper than MI (3 bounds + joint
        # counters), so both entropy queries schedule first.
        assert set(plan.names[:2]) == {"tk_h", "f_h"}

    def test_submission_order_preserved_on_request(self, store):
        plan = plan_queries(store, _mixed_specs(), order="submission")
        assert plan.order == "submission"
        assert plan.names == ("tk_h", "f_h", "tk_mi", "f_mi")
        assert plan.estimated_cells == ()
        assert plan.cost_model == "none"

    def test_unknown_order_rejected(self, store):
        with pytest.raises(PlanError, match="unknown plan order"):
            plan_queries(store, _mixed_specs(), order="random")

    def test_count_groups(self, store):
        plan = plan_queries(store, _mixed_specs())
        assert set(plan.marginal_attributes) == set(store.attributes)
        assert len(plan.joint_targets) == 1
        target, candidates = plan.joint_targets[0]
        assert target == "target"
        assert set(candidates) == set(store.attributes) - {"target"}

    def test_names_default_to_positional(self, store):
        plan = plan_queries(
            store,
            [
                QuerySpec(kind="top_k", score="entropy", k=1),
                QuerySpec(kind="filter", score="entropy", threshold=1.0),
            ],
        )
        assert plan.names == ("q0", "q1")


# ----------------------------------------------------------------------
# Cost model: exact predictions, each Lemma 3 term evaluated once
# ----------------------------------------------------------------------
class _Schema:
    """The two schema facts the cost model reads: ``N`` and supports."""

    def __init__(self, num_rows: int, supports: dict[str, int]) -> None:
        self.num_rows = num_rows
        self._supports = supports

    def support_size(self, name: str) -> int:
        return self._supports[name]


def _reference_widths(
    schema, spec: QuerySpec, failure_probability
) -> tuple[list[int], dict[str, list[float]]]:
    """The per-candidate scalar walk the batch memo must reproduce exactly.

    Returns the schedule sizes below ``N`` and each candidate's width at
    every one of them, from one ``entropy_interval`` per candidate and
    size (three for an MI candidate), the bias read back as
    ``width − 2·half_width``.
    """
    population = schema.num_rows
    if failure_probability is None:
        failure_probability = 1.0 / population
    mutual = spec.score == "mutual_information"
    names = list(spec.attributes)
    all_names = [spec.target, *names] if mutual else names
    supports = {name: schema.support_size(name) for name in all_names}
    schedule = SampleSchedule.for_query(
        population,
        len(names) + 1 if mutual else len(names),
        failure_probability,
        max(supports.values()),
    )
    per_bound = schedule.per_round_failure(
        failure_probability, len(names), bounds_per_attribute=3 if mutual else 1
    )

    def parts(support: int, size: int) -> tuple[float, float]:
        iv = entropy_interval(0.0, support, size, population, per_bound)
        return iv.half_width, iv.width - 2.0 * iv.half_width

    sizes = [size for size in schedule.sizes if size < population]
    target_support = supports.get(spec.target or "", 2)
    widths: dict[str, list[float]] = {}
    for name in names:
        support = supports[name]
        widths[name] = []
        for size in sizes:
            lam, bias = parts(support, size)
            if mutual:
                _, bias_t = parts(target_support, size)
                _, bias_j = parts(support * target_support, size)
                widths[name].append(6.0 * lam + bias_t + bias + bias_j)
            else:
                widths[name].append(2.0 * lam + bias)
    return sizes, widths


def _reference_estimate(
    schema, spec: QuerySpec, failure_probability
) -> tuple[int, int]:
    """``(predicted_sample_size, predicted_cells)`` from the scalar walk."""
    sizes, widths = _reference_widths(schema, spec, failure_probability)
    mutual = spec.score == "mutual_information"
    target_support = schema.support_size(spec.target) if mutual else 2
    predicted_m = cells = 0
    for name in spec.attributes:
        support = schema.support_size(name)
        if spec.kind == "filter":
            goal = 2.0 * spec.epsilon * spec.threshold
        elif mutual:
            goal = spec.epsilon * math.log2(max(2, min(support, target_support)))
        else:
            goal = spec.epsilon * math.log2(max(2, support))
        retire = next(
            (size for size, width in zip(sizes, widths[name]) if width < goal),
            schema.num_rows,
        )
        predicted_m = max(predicted_m, retire)
        cells += (3 if mutual else 1) * retire
    if mutual:
        cells += predicted_m
    return predicted_m, cells


def _predictions(schema, specs, failure_probability):
    estimates = CostModel().estimate_batch(
        schema, specs, failure_probability=failure_probability
    )
    return [(e.predicted_sample_size, e.predicted_cells) for e in estimates]


_SUPPORTS = st.one_of(
    st.just(1), st.integers(1, 64), st.integers(1_000, 200_000)
)


@st.composite
def _cost_batches(draw):
    """A schema and 1-4 resolved specs over it (so specs share the memo)."""
    num_rows = draw(st.one_of(st.integers(2, 200), st.integers(2, 1_000_000)))
    num_candidates = draw(st.integers(1, 6))
    names = [f"c{i}" for i in range(num_candidates)]
    supports = {name: draw(_SUPPORTS) for name in [*names, "t"]}
    specs = []
    for index in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["top_k", "filter"]))
        score = draw(st.sampled_from(["entropy", "mutual_information"]))
        specs.append(
            QuerySpec(
                kind=kind,
                score=score,
                k=1 if kind == "top_k" else None,
                threshold=(
                    draw(st.floats(0.01, 20.0)) if kind == "filter" else None
                ),
                epsilon=draw(st.floats(0.01, 0.99)),
                target="t" if score == "mutual_information" else None,
                attributes=tuple(
                    draw(st.lists(st.sampled_from(names), min_size=1, max_size=6))
                ),
                name=f"q{index}",
            )
        )
    failure_probability = draw(st.none() | st.floats(1e-12, 0.9))
    return _Schema(num_rows, supports), specs, failure_probability


class TestCostModel:
    @settings(max_examples=100, deadline=None)
    @given(_cost_batches())
    def test_batch_matches_per_candidate_scalar_walk(self, batch):
        schema, specs, failure_probability = batch
        assert _predictions(schema, specs, failure_probability) == [
            _reference_estimate(schema, spec, failure_probability) for spec in specs
        ]

    @settings(max_examples=100, deadline=None)
    @given(_cost_batches(), st.data())
    def test_goal_on_a_width_boundary(self, batch, data):
        """A filter goal equal to (or one ulp above) a reference width.

        With ``ε = 0.5`` the goal ``2εη`` is exactly ``η``, so the
        prediction flips on the last bit of the width: any change to the
        terms' float order shows here.
        """
        schema, specs, failure_probability = batch
        probe = replace(specs[0], kind="filter", k=None, threshold=1.0, epsilon=0.5)
        sizes, widths = _reference_widths(schema, probe, failure_probability)
        assume(sizes)
        name = data.draw(st.sampled_from(probe.attributes))
        width = widths[name][data.draw(st.integers(0, len(sizes) - 1))]
        threshold = data.draw(
            st.sampled_from([width, math.nextafter(width, math.inf)])
        )
        assume(0.0 < threshold < math.inf)
        spec = replace(probe, threshold=threshold)
        assert _predictions(schema, [spec], failure_probability) == [
            _reference_estimate(schema, spec, failure_probability)
        ]

    def test_each_lemma3_term_evaluated_once_per_plan(self, monkeypatch):
        """One plan evaluates λ once per (M, p′) and b once per (u, M)."""
        half_widths: Counter = Counter()
        biases: Counter = Counter()

        def counted_half_width(size, population, per_bound, **kwargs):
            half_widths[size, per_bound] += 1
            return permutation_half_width(size, population, per_bound, **kwargs)

        def counted_bias(support, size, population):
            biases[support, size] += 1
            return bias_bound(support, size, population)

        monkeypatch.setattr(cost, "permutation_half_width", counted_half_width)
        monkeypatch.setattr(cost, "bias_bound", counted_bias)
        plan = plan_queries(_golden_store(), _golden_mixed_specs())
        assert len(plan.estimated_cells) == 4
        assert half_widths and biases
        assert max(half_widths.values()) == 1
        assert max(biases.values()) == 1

    def test_unresolved_spec_rejected(self, store):
        spec = QuerySpec(kind="top_k", score="entropy", k=1)
        with pytest.raises(ParameterError, match="resolved spec"):
            CostModel().estimate_batch(store, [spec])


# ----------------------------------------------------------------------
# Bit-identity: a swope_* call is a one-spec plan
# ----------------------------------------------------------------------
FACADES = {
    "tk_h": lambda store, spec, **kw: swope_top_k_entropy(
        store, spec.k, prune=spec.prune, **kw
    ),
    "f_h": lambda store, spec, **kw: swope_filter_entropy(
        store, spec.threshold, **kw
    ),
    "tk_mi": lambda store, spec, **kw: swope_top_k_mutual_information(
        store, spec.target, spec.k, prune=spec.prune, **kw
    ),
    "f_mi": lambda store, spec, **kw: swope_filter_mutual_information(
        store, spec.target, spec.threshold, **kw
    ),
}

#: Plan-level events a swope_* call does not emit.
PLAN_EVENTS = {"plan_start", "schedule_chosen", "query_retired", "plan_end"}


def _spec(name: str) -> QuerySpec:
    return next(s for s in _mixed_specs() if s.name == name)


def _query_events(sink: InMemorySink) -> list[tuple[str, dict]]:
    """Per-query events, minus the query label (plans name their specs)."""
    return [
        (type(event).event, {k: v for k, v in asdict(event).items() if k != "name"})
        for event in sink
        if type(event).event not in PLAN_EVENTS
    ]


def _assert_facade_matches_plan(store, spec, *, cached=False, **executor_kwargs):
    """Run ``spec`` as a swope_* call and as a one-spec plan (cold, then warm)."""
    facade_cache, plan_cache = (PlanCache(), PlanCache()) if cached else (None, None)
    for _ in range(2 if cached else 1):
        facade_sink, plan_sink = InMemorySink(), InMemorySink()
        facade = FACADES[spec.name](
            store, spec, seed=SEED, trace=facade_sink, cache=facade_cache,
            **executor_kwargs,
        )
        outcome = PlanExecutor(
            store, seed=SEED, cache=plan_cache, **executor_kwargs
        ).execute(plan_queries(store, [spec]), trace=plan_sink)
        planned = outcome[spec.name]
        _assert_results_equal(planned, facade)
        assert planned.stats.cells_scanned == facade.stats.cells_scanned
        assert planned.stats.cells_saved == facade.stats.cells_saved
        assert _query_events(plan_sink) == _query_events(facade_sink)


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(FACADES))
    def test_single_query_plan_matches_legacy(self, store, name):
        spec = _spec(name)
        _assert_facade_matches_plan(store, spec)
        _assert_facade_matches_plan(store, spec, cached=True)
        _assert_facade_matches_plan(store, spec, sequential=True)
        if spec.kind == "top_k":
            _assert_facade_matches_plan(store, replace(spec, prune=True))

    def test_mixed_plan_matches_sequential_session(self, store):
        executor = PlanExecutor(store, seed=SEED)
        plan = plan_queries(store, _mixed_specs())
        outcome = executor.execute(plan)

        # Run the single queries in the plan's *scheduled* order — the
        # ratchet floor each query starts from depends on who ran before.
        single = PlanExecutor(store, seed=SEED)
        runners = {
            "tk_h": lambda: single.top_k_entropy(2),
            "f_h": lambda: single.filter_entropy(2.0),
            "tk_mi": lambda: single.top_k_mutual_information("target", 2),
            "f_mi": lambda: single.filter_mutual_information("target", 0.5),
        }
        for spec in plan.specs:
            expected = runners[spec.name]()
            _assert_results_equal(outcome[spec.name], expected)
        assert executor.cells_scanned == single.cells_scanned

    def test_session_run_plan_facade(self, store):
        executor = PlanExecutor(store, seed=SEED)
        outcome = executor.execute(plan_queries(store, _mixed_specs()))
        assert len(outcome) == 4
        assert executor.queries_run == 4


class _CellMeter:
    """Numpy counting that tallies the cells sent to the backend."""

    name = "meter"

    def __init__(self) -> None:
        self.cells = 0

    def count_columns(self, columns, support_sizes, rows):
        self.cells += len(columns) * len(rows)
        return NumpyBackend().count_columns(columns, support_sizes, rows)


class TestJointCarry:
    def test_carry_is_invisible_in_answers_cells_and_trace(self, monkeypatch):
        store = _interleaved_store()
        plan = plan_queries(store, _interleaved_specs())
        assert plan.names == (
            "top_entropy", "top_mi", "high_entropy", "relevant_mi"
        )

        def run(carry: bool):
            sink = InMemorySink()
            meter = _CellMeter()
            executor = PlanExecutor(store, seed=SEED, trace=sink, backend=meter)
            if not carry:
                monkeypatch.setattr(
                    executor.sampler, "expect_joints", lambda pairs: None
                )
            outcome = executor.execute(plan)
            assert executor.sampler._held == {}
            return outcome, [serialize_event(e) for e in sink.events], meter

        carried, carried_trace, carried_meter = run(carry=True)
        gathered, gathered_trace, gathered_meter = run(carry=False)
        for name in plan.names:
            _assert_results_equal(carried[name], gathered[name])
        assert carried.stats.per_query_cells == gathered.stats.per_query_cells
        assert plan_fingerprint(carried) == plan_fingerprint(gathered)
        assert carried_trace == gathered_trace
        # high_entropy read its twelve candidates off joint deltas it
        # held for relevant_mi instead of sending them to the backend
        assert carried_meter.cells < gathered_meter.cells

    def test_each_query_expects_the_later_mi_joints(self, store, monkeypatch):
        executor = PlanExecutor(store, seed=SEED)
        calls: list[list[tuple[str, str]]] = []
        monkeypatch.setattr(
            executor.sampler, "expect_joints",
            lambda pairs: calls.append(list(pairs)),
        )
        plan = plan_queries(store, _mixed_specs())
        executor.execute(plan)
        assert plan.names == ("f_h", "tk_h", "tk_mi", "f_mi")
        pairs = {
            ("target", name)
            for name in ("wide", "medium", "narrow", "noisy", "independent")
        }
        # both MI queries follow f_h and tk_h; only f_mi follows tk_mi
        assert [set(call) for call in calls] == [pairs, pairs, pairs, set()]
        assert executor.sampler._held == {}
        # a query outside a plan sets no expectation
        calls.clear()
        executor.execute_one(_mixed_specs()[0])
        assert calls == []


# ----------------------------------------------------------------------
# Shared-scan accounting
# ----------------------------------------------------------------------
class TestSharedCost:
    def test_shared_scan_beats_standalone(self, store):
        executor = PlanExecutor(store, seed=SEED)
        outcome = executor.execute(plan_queries(store, _mixed_specs()))
        standalone = sum(
            FACADES[spec.name](store, spec, seed=SEED).stats.cells_scanned
            for spec in _mixed_specs()
        )
        assert outcome.stats.cells_scanned < standalone
        assert outcome.stats.cells_scanned == sum(
            outcome.stats.per_query_cells.values()
        )
        assert outcome.stats.sample_floor == executor.sample_floor
        assert executor.sampler.counted_attributes  # counters retained

    def test_result_lookup_errors_are_typed(self, store):
        executor = PlanExecutor(store, seed=SEED)
        outcome = executor.execute(
            plan_queries(store, [QuerySpec(kind="top_k", score="entropy", k=1)])
        )
        with pytest.raises(PlanError, match="no query named"):
            outcome["ghost"]


# ----------------------------------------------------------------------
# Plan-wide resilience
# ----------------------------------------------------------------------
class TestPlanResilience:
    def test_plan_wide_cell_budget_degrades_each_query(self, store):
        executor = PlanExecutor(
            store, seed=SEED, budget=QueryBudget(max_cells=1)
        )
        outcome = executor.execute(plan_queries(store, _mixed_specs()))
        assert outcome.stats.queries_completed == 4
        for name in ("tk_h", "f_h", "tk_mi", "f_mi"):
            status = outcome[name].guarantee
            assert status is not None
            assert not status.guarantee_met
            assert status.stopping_reason == "cell_budget"
            # The anytime contract: every query still runs one iteration.
            assert outcome[name].stats.iterations >= 1

    def test_precancelled_token_still_answers(self, store):
        token = CancellationToken()
        token.cancel("test shutdown")
        executor = PlanExecutor(store, seed=SEED)
        outcome = executor.execute(
            plan_queries(store, _mixed_specs()), cancellation=token
        )
        for name in outcome:
            status = outcome[name].guarantee
            assert status is not None
            assert status.stopping_reason == "cancelled"

    def test_strict_mode_raises_and_ratchets(self, store):
        executor = PlanExecutor(
            store, seed=SEED, budget=QueryBudget(max_cells=1)
        )
        sink = InMemorySink()
        with pytest.raises(QueryInterruptedError):
            executor.execute(
                plan_queries(store, _mixed_specs()), strict=True, trace=sink
            )
        # The partial run's prefix counters survive for later queries.
        assert executor.sample_floor > 0
        kinds = sink.kinds()
        assert kinds[0] == "plan_start"
        assert kinds[-1] == "plan_end"
        assert kinds.count("query_retired") == 1  # the truncated query
        (end,) = sink.of_kind("plan_end")
        assert end.queries_completed == 0

    def test_failed_query_ratchets_the_floor(self, store):
        class FailingBackend(NumpyBackend):
            """Raises ``OSError`` on its fourth ``count_columns`` call."""

            calls = 0

            def count_columns(self, columns, support_sizes, rows):
                self.calls += 1
                if self.calls == 4:
                    raise OSError("simulated store read error")
                return super().count_columns(columns, support_sizes, rows)

        executor = PlanExecutor(store, seed=SEED, backend=FailingBackend())
        with pytest.raises(OSError, match="simulated"):
            executor.top_k_entropy(1)
        floor = executor.sample_floor
        # The failed query grew the shared counters; the next query
        # starts at the floor they ratcheted instead of asking them to
        # shrink.
        result = executor.top_k_entropy(1)
        assert result.attributes == ["wide"]
        assert 0 < floor <= result.stats.final_sample_size


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestPlanObservability:
    def test_event_envelope_and_metrics_reconcile(self, store):
        sink = InMemorySink()
        registry = MetricsRegistry()
        executor = PlanExecutor(store, seed=SEED, trace=sink, metrics=registry)
        outcome = executor.execute(plan_queries(store, _mixed_specs()))

        kinds = sink.kinds()
        assert kinds[0] == "plan_start"
        assert kinds[1] == "schedule_chosen"
        assert kinds[-1] == "plan_end"
        (chosen,) = sink.of_kind("schedule_chosen")
        assert chosen.order == "cost"
        assert chosen.submission == ("tk_h", "f_h", "tk_mi", "f_mi")
        retired = sink.of_kind("query_retired")
        assert tuple(e.name for e in retired) == chosen.queries
        assert [e.index for e in retired] == [0, 1, 2, 3]
        assert all(e.guarantee_met for e in retired)
        assert [e.marginal_cells for e in retired] == [
            outcome.stats.per_query_cells[e.name] for e in retired
        ]

        (start,) = sink.of_kind("plan_start")
        assert start.num_queries == 4
        assert start.population_size == store.num_rows
        (end,) = sink.of_kind("plan_end")
        assert end.queries_completed == 4
        assert end.cells_scanned == outcome.stats.cells_scanned
        assert end.sample_floor == outcome.stats.sample_floor

        assert registry.counter("plans_total").value == 1
        assert registry.counter("plan_queries_total").value == 4
        assert (
            registry.counter("plan_cells_scanned_total").value
            == outcome.stats.cells_scanned
        )

    def test_plan_trace_brackets_per_query_traces(self, store):
        sink = InMemorySink()
        executor = PlanExecutor(store, seed=SEED, trace=sink)
        executor.execute(
            plan_queries(store, [QuerySpec(kind="top_k", score="entropy", k=1)])
        )
        kinds = sink.kinds()
        assert kinds[0] == "plan_start"
        assert "query_start" in kinds and "query_end" in kinds
        assert kinds.index("query_start") > kinds.index("plan_start")
        assert kinds.index("query_retired") > kinds.index("query_end")
        assert kinds[-1] == "plan_end"
