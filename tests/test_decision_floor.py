"""The decision floor of MI queries (``repro.core.bounds.mi_decision_floor``).

An MI loop evaluates first at the first schedule size where one of its
rules (top-k stop, prune, exact rank, filter include or exclude) can
fire on some data, and extends the counters over the sizes below in one
block. The properties here pin both halves of that contract on random
small stores:

* with the floor switched off (``repro.core.plan._SKIP_TO_DECISION_FLOOR``),
  no rule fires at any size below the floor;
* with it on, results, stats, the loop's checkpoints and the trace are
  those of the stepping loop, minus the ``iteration`` events below the
  floor;
* a ``max_cells`` budget or sample cap that stops a stepping loop below
  the floor stops the jump at the same size.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import plan as plan_module
from repro.core.bounds import (
    FLOOR_MARGIN,
    bias_bound,
    mi_decision_floor,
    permutation_half_width,
)
from repro.core.budget import QueryBudget
from repro.core.engine import default_failure_probability
from repro.core.estimators import _entropy_from_trusted_counts
from repro.core.plan import PlanExecutor, QuerySpec, plan_queries
from repro.core.schedule import SampleSchedule
from repro.data.column_store import ColumnStore
from repro.data.sampling import PrefixSampler
from repro.exceptions import ParameterError
from repro.obs import InMemorySink
from repro.obs.sinks import serialize_event
from repro.testing.chaos import plan_fingerprint, result_fingerprint


def _store(n: int, target_support: int, kinds: list[tuple[str, int]], seed: int):
    """A target and candidates that copy it, copy it noisily, ignore it,
    or are constant — from MI at its maximum down to exactly zero."""
    rng = np.random.default_rng(seed)
    target = rng.integers(0, target_support, n)
    columns = {"target": target}
    for i, (kind, support) in enumerate(kinds):
        if kind == "copy":
            column = target
        elif kind == "noisy":
            column = np.where(rng.random(n) < 0.8, target, rng.integers(0, support, n))
        elif kind == "constant":
            column = np.zeros(n, dtype=np.int64)
        else:
            column = rng.integers(0, support, n)
        columns[f"c{i}"] = column
    return ColumnStore(columns)


def _counters(sampler: PrefixSampler) -> tuple:
    """The sampler's cells meter and every counter, comparable with ==."""
    state = sampler.state_snapshot()
    marginals = tuple(
        sorted(
            (name, entry["counted"], entry["counts"].tobytes())
            for name, entry in state["marginals"].items()
        )
    )
    joints = tuple(
        sorted(
            (
                entry["first"],
                entry["second"],
                entry["counted"],
                entry["counter"].get("dense", entry["counter"].get("sparse_codes")).tobytes(),
            )
            for entry in state["joints"]
        )
    )
    return state["cells_scanned"], marginals, joints


def _run(store, spec, epsilon, schedule, *, floor_on, budget=None):
    """One MI query through the executor's wiring, traced and checkpointed."""
    sampler = PrefixSampler(store, seed=3)
    failure = default_failure_probability(store.num_rows)
    with mock.patch.object(plan_module, "_SKIP_TO_DECISION_FLOOR", floor_on):
        names, schedule, provider, floor = plan_module._wire_query(
            sampler, spec, failure, schedule, epsilon
        )
    sink = InMemorySink()
    states: list = []
    result = plan_module._run_loop(
        spec, provider, sampler, names, epsilon, schedule, trace=sink,
        budget=budget, decision_floor=floor,
        checkpoint=lambda state: states.append((state, _counters(sampler))),
    )
    return result, sink.events, states, floor


def _check_floor(store, spec, epsilon, schedule, budget=None) -> int:
    """Run ``spec`` with the floor on and off; assert the contract."""
    on, on_events, on_states, floor = _run(
        store, spec, epsilon, schedule, floor_on=True, budget=budget
    )
    off, off_events, off_states, off_floor = _run(
        store, spec, epsilon, schedule, floor_on=False, budget=budget
    )
    assert off_floor == 0
    sizes = schedule.sizes
    assert 0 <= floor < len(sizes)
    # No rule of the stepping loop fires below the floor.
    for event in off_events:
        if event.event == "iteration" and event.index < floor:
            assert not event.stopped and not event.decided, event
        if event.event == "prune":
            assert event.sample_size >= sizes[floor], event
    # The jump lands on the floor, or below it where a budget stops the
    # stepping loop first.
    first = next(e.index for e in on_events if e.event == "iteration")
    assert first == floor or (budget is not None and first < floor)
    if first < floor:
        assert off.stats.final_sample_size == sizes[first]
    # Stepping below it changes nothing but the events it emits.
    assert result_fingerprint(on) == result_fingerprint(off)
    assert on.stats.iterations == off.stats.iterations
    assert on_states == [s for s in off_states if s[0].next_index > first]
    kept = [
        e for e in off_events if not (e.event == "iteration" and e.index < first)
    ]
    assert [serialize_event(e) for e in on_events] == [
        serialize_event(e) for e in kept
    ]
    return floor


KINDS = st.lists(
    st.tuples(
        st.sampled_from(["copy", "noisy", "independent", "constant"]),
        st.integers(min_value=1, max_value=12),
    ),
    min_size=1,
    max_size=4,
)
EPSILON = st.one_of(st.none(), st.floats(min_value=0.01, max_value=0.999))


@st.composite
def _cases(draw):
    n = draw(st.integers(min_value=8, max_value=600))
    target_support = draw(st.integers(min_value=1, max_value=8))
    kinds = draw(KINDS)
    store = _store(n, target_support, kinds, draw(st.integers(0, 2**16)))
    schedule = SampleSchedule(
        n, draw(st.integers(min_value=2, max_value=max(2, n // 4)))
    )
    epsilon = draw(EPSILON)
    if draw(st.booleans()):
        spec = QuerySpec(
            kind="top_k", score="mutual_information", target="target",
            k=draw(st.integers(min_value=1, max_value=len(kinds) + 1)),
            prune=draw(st.booleans()),
        )
    else:
        # Thresholds reach past log2 of every support, so include can
        # become impossible while exclude stays possible.
        spec = QuerySpec(
            kind="filter", score="mutual_information", target="target",
            threshold=draw(st.floats(min_value=0.0, max_value=4.5)),
        )
    return store, spec, epsilon, schedule


class TestFloorProperty:
    @settings(max_examples=150, deadline=None)
    @given(case=_cases())
    def test_no_rule_fires_below_the_floor(self, case):
        store, spec, epsilon, schedule = case
        _check_floor(store, spec, epsilon, schedule)

    @settings(max_examples=40, deadline=None)
    @given(case=_cases(), cells=st.integers(min_value=1, max_value=6_000))
    def test_cell_budget_stops_the_jump_where_stepping_stops(self, case, cells):
        store, spec, epsilon, schedule = case
        _check_floor(store, spec, epsilon, schedule, QueryBudget(max_cells=cells))

    @settings(max_examples=40, deadline=None)
    @given(case=_cases(), cap=st.integers(min_value=2, max_value=600))
    def test_sample_cap_stops_the_jump_where_stepping_stops(self, case, cap):
        store, spec, epsilon, schedule = case
        _check_floor(
            store, spec, epsilon, schedule, QueryBudget(max_sample_size=cap)
        )


def _edge_store() -> ColumnStore:
    return _store(
        4_000, 6,
        [("copy", 6), ("noisy", 6), ("independent", 12), ("constant", 1)],
        seed=11,
    )


EDGE_SCHEDULE = SampleSchedule(4_000, 16)


class TestEdgeCases:
    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("epsilon", [None, 0.5, 0.999])
    @pytest.mark.parametrize("k", [1, 2, 4, 9])
    def test_top_k(self, k, epsilon, prune):
        spec = QuerySpec(
            kind="top_k", score="mutual_information", target="target", k=k,
            prune=prune,
        )
        floor = _check_floor(_edge_store(), spec, epsilon, EDGE_SCHEDULE)
        if epsilon is None and k >= 4:
            assert floor == 0  # at most k candidates: the exact rank stops at once

    @pytest.mark.parametrize("epsilon", [None, 0.05, 0.5, 0.999])
    @pytest.mark.parametrize(
        # 0 includes everything at once; log2 6 ≈ 2.585 is the largest
        # possible MI, so 3.0 and 9.0 can only be excluded.
        "threshold", [0.0, 0.3, 1.5, 2.585, 3.0, 9.0],
    )
    def test_filter(self, threshold, epsilon):
        spec = QuerySpec(
            kind="filter", score="mutual_information", target="target",
            threshold=threshold,
        )
        floor = _check_floor(_edge_store(), spec, epsilon, EDGE_SCHEDULE)
        if threshold == 0.0 and epsilon is not None:
            assert floor == 0

    @pytest.mark.parametrize(
        "target_support, n", [(2, 20_000), (4, 5_000), (8, 20_000)]
    )
    @pytest.mark.parametrize("epsilon", [0.5, None])
    def test_rules_fire_at_the_floor_itself(self, target_support, n, epsilon):
        # A copy of a balanced target has the largest sample MI there is,
        # a constant column the smallest upper bound: the prune (SWOPE)
        # or the exact rank fires at the floor, so a floor one size later
        # would change the run.
        rng = np.random.default_rng(0)
        target = rng.permutation(np.arange(n) % target_support)
        store = ColumnStore(
            {
                "target": target,
                "copy": target.copy(),
                "constant": np.zeros(n, dtype=np.int64),
                "independent": rng.integers(0, target_support, n),
            }
        )
        spec = QuerySpec(
            kind="top_k", score="mutual_information", target="target", k=1,
        )
        schedule = SampleSchedule(n, 16)
        floor = _check_floor(store, spec, epsilon, schedule)
        _, events, _, _ = _run(store, spec, epsilon, schedule, floor_on=False)
        fired = {
            e.sample_size for e in events if e.event == "prune"
        } | {e.sample_size for e in events if e.event == "iteration" and e.stopped}
        assert schedule.sizes[floor] in fired

    def test_floor_skips_sizes_on_the_edge_store(self):
        spec = QuerySpec(
            kind="top_k", score="mutual_information", target="target", k=2,
        )
        assert _check_floor(_edge_store(), spec, 0.5, EDGE_SCHEDULE) >= 3

    def test_constant_columns_only(self):
        store = _store(500, 1, [("constant", 1), ("constant", 1)], seed=0)
        for spec in (
            QuerySpec(kind="top_k", score="mutual_information", target="target", k=1),
            QuerySpec(
                kind="filter", score="mutual_information", target="target",
                threshold=0.5,
            ),
        ):
            _check_floor(store, spec, 0.5, SampleSchedule(500, 8))


class TestMarginAndHelper:
    def test_rounded_sample_mi_can_exceed_log2_support(self):
        # A copy of a uniform target over 11 values: the rounded sample
        # MI overshoots its exact value log2 11, so a floor computed
        # without a margin would sit above a size where a rule fires.
        counts = np.full(11, 3, dtype=np.int64)
        entropy = _entropy_from_trusted_counts(counts, 33)
        sample_mi = entropy + entropy - entropy
        assert sample_mi > math.log2(11)
        assert sample_mi <= math.log2(11) + FLOOR_MARGIN

    def test_margin_only_moves_the_floor_earlier(self):
        sizes = SampleSchedule(100_000, 40).sizes
        args = (sizes, 100_000, 1e-7, 8, [2, 8, 30])
        kwargs = {"epsilon": 0.5, "k": 2}
        floor = mi_decision_floor(*args, **kwargs)
        with mock.patch("repro.core.bounds.FLOOR_MARGIN", 0.0):
            exact = mi_decision_floor(*args, **kwargs)
        with mock.patch("repro.core.bounds.FLOOR_MARGIN", 10.0):
            loose = mi_decision_floor(*args, **kwargs)
        assert loose <= floor <= exact
        assert 0 < floor < len(sizes) - 1

    def test_exactly_one_of_k_and_threshold(self):
        with pytest.raises(ParameterError):
            mi_decision_floor((10, 20), 20, 0.1, 2, [2], epsilon=0.5)
        with pytest.raises(ParameterError):
            mi_decision_floor(
                (10, 20), 20, 0.1, 2, [2], epsilon=0.5, k=1, threshold=0.1
            )

    def test_last_size_always_decides(self):
        sizes = SampleSchedule(1_000, 16).sizes
        # A constant candidate has MI 0: no lower bound can pass η = 0 and
        # no upper bound can drop below it, so only the final round, where
        # the bounds are exact, decides.
        floor = mi_decision_floor(
            sizes, 1_000, 1e-9, 4, [1], epsilon=None, threshold=0.0
        )
        assert floor == len(sizes) - 1


def _scalar_floor(
    sizes, population_size, failure_probability, target_support,
    candidate_supports, *, epsilon, k=None, threshold=None, prune=True,
) -> int:
    """The scalar loop ``mi_decision_floor`` replaced: its reference."""
    if k is not None and epsilon is None and k >= len(candidate_supports):
        return 0
    prunes = k is not None and prune and len(candidate_supports) > k
    n = population_size
    margin = FLOOR_MARGIN
    last = len(sizes) - 1
    for index in range(last):
        m = sizes[index]
        lam = permutation_half_width(m, n, failure_probability)
        bias_target = bias_bound(target_support, m, n)
        lower_top, upper_low, upper_top, width_min = 0.0, math.inf, 0.0, math.inf
        for support in set(candidate_supports):
            score = math.log2(min(support, target_support, m)) + margin
            bias = bias_bound(support, m, n)
            bias_joint = bias_bound(target_support * support, m, n)
            lower_top = max(lower_top, score - 3.0 * lam - bias_joint)
            spread = 3.0 * lam + bias_target + bias
            upper_low = min(upper_low, max(0.0, spread - margin))
            upper_top = max(upper_top, score + spread)
            width_min = min(width_min, 6.0 * lam + bias_target + bias + bias_joint)
        width_min -= margin
        if threshold is None:
            if epsilon is None:
                if lower_top >= upper_low:
                    return index
            elif upper_low <= 0.0 or width_min <= epsilon * upper_top:
                return index
            if prunes and lower_top > upper_low:
                return index
        elif epsilon is None:
            if lower_top > threshold or upper_low < threshold:
                return index
        elif (
            width_min < 2.0 * epsilon * threshold
            or lower_top >= (1.0 - epsilon) * threshold
            or upper_low < (1.0 + epsilon) * threshold
        ):
            return index
    return last


@st.composite
def _floor_inputs(draw):
    n = draw(st.integers(min_value=2, max_value=2_000_000))
    start = draw(st.integers(min_value=1, max_value=max(1, n // 4)))
    kwargs = {
        "epsilon": draw(st.one_of(st.none(), st.floats(0.01, 0.999))),
        "prune": draw(st.booleans()),
    }
    supports = draw(st.lists(st.integers(1, 300), min_size=1, max_size=8))
    if draw(st.booleans()):
        kwargs["k"] = draw(st.integers(1, 10))
    else:
        kwargs["threshold"] = draw(st.floats(0.0, 10.0))
    args = (
        SampleSchedule(n, start).sizes,
        n,
        draw(st.floats(1e-12, 0.3)),
        draw(st.integers(1, 64)),
        supports,
    )
    return args, kwargs


@settings(max_examples=300, deadline=None)
@given(inputs=_floor_inputs())
def test_vectorised_floor_matches_the_scalar_loop(inputs):
    args, kwargs = inputs
    assert mi_decision_floor(*args, **kwargs) == _scalar_floor(*args, **kwargs)


def _mi_first_specs() -> list[QuerySpec]:
    return [
        QuerySpec(
            kind="top_k", score="mutual_information", k=2, target="target",
            name="top_mi",
        ),
        QuerySpec(kind="filter", score="entropy", threshold=2.0, name="high_h"),
        QuerySpec(
            kind="filter", score="mutual_information", threshold=0.2,
            target="target", name="relevant_mi",
        ),
    ]


@pytest.mark.parametrize("order", ["cost", "submission"])
def test_plans_save_the_same_checkpoints_above_the_floor(tmp_path, monkeypatch, order):
    """A checkpointed plan with carried joints: same answers, and the
    floor-on run saves exactly the floor-off run's checkpoints at and
    above each MI query's floor."""
    store = _edge_store()
    plan = plan_queries(store, _mi_first_specs(), order=order)
    floors: list[int] = []
    decide = plan_module.mi_decision_floor

    def recording(*args, **kwargs):
        floors.append(decide(*args, **kwargs))
        return floors[-1]

    saved: list = []
    write = PlanExecutor._write_checkpoint

    def capturing(self, progress, *args):
        saved.append((progress.index, progress.loop, _counters(self._sampler)))
        return write(self, progress, *args)

    monkeypatch.setattr(plan_module, "mi_decision_floor", recording)
    monkeypatch.setattr(PlanExecutor, "_write_checkpoint", capturing)
    on = PlanExecutor(store, seed=5, checkpoint_path=tmp_path / "on.ckpt").execute(plan)
    on_saved, saved[:] = list(saved), []
    monkeypatch.setattr(plan_module, "_SKIP_TO_DECISION_FLOOR", False)
    off = PlanExecutor(store, seed=5, checkpoint_path=tmp_path / "off.ckpt").execute(plan)
    assert plan_fingerprint(on) == plan_fingerprint(off)
    mi_floors = iter(floors)
    floor_of = {
        index: next(mi_floors) if spec.target is not None else 0
        for index, spec in enumerate(plan.specs)
    }
    if order == "submission":  # the MI query runs first, from M0
        assert floor_of[0] > 0
    kept = [
        entry
        for entry in saved
        if entry[1] is None or entry[1].next_index > floor_of[entry[0]]
    ]
    assert len(kept) < len(saved) or not any(floor_of.values())
    assert on_saved == kept


def _mi(kind: str, param: float) -> QuerySpec:
    if kind == "top_k":
        return QuerySpec(
            kind="top_k", score="mutual_information", target="target",
            k=int(param), epsilon=0.5,
        )
    return QuerySpec(
        kind="filter", score="mutual_information", target="target",
        threshold=param, epsilon=0.5,
    )


@pytest.mark.parametrize(
    "kind, stored, requested",
    [
        ("filter", 0.3, 0.3),
        ("filter", 0.3, 1.0),
        ("filter", 0.05, 2.0),  # exclusion can fire below the stored floor
        ("filter", 0.0, 0.3),
        ("top_k", 3, 1),
        ("top_k", 4, 2),
    ],
)
def test_served_mi_answers_match_fresh_runs(kind, stored, requested):
    """A cached MI answer serves a dominated request exactly as a fresh
    run at the requested parameter answers it, floor and all, or is
    refused."""
    from repro.cache import PlanCache

    store = _edge_store()
    cache = PlanCache()
    PlanExecutor(store, seed=5, cache=cache).execute_one(_mi(kind, stored))
    served = PlanExecutor(store, seed=5, cache=cache).execute_one(
        _mi(kind, requested)
    )
    fresh = PlanExecutor(store, seed=5).execute_one(_mi(kind, requested))
    got, want = result_fingerprint(served), result_fingerprint(fresh)
    # a served answer scans nothing, a refused one starts from cached counters
    del got["stats"]["cells_scanned"], want["stats"]["cells_scanned"]
    assert got == want


class TestReplayFromTheFloor:
    # (lower, upper, width, midpoint) of one candidate at two sizes
    HISTORY = [
        (100, {"a": (0.0, 3.0, 3.5, 1.25)}),
        (200, {"a": (0.9, 1.1, 0.2, 1.0)}),
    ]

    def test_replay_starts_at_the_requested_floor(self):
        from repro.cache.semantic import replay_filter, replay_top_k

        # (skipped sizes, first size): the skipped count plus the
        # recorded sizes from the first one on
        for first, iterations in [((0, 100), 2), ((3, 100), 5), ((4, 200), 5)]:
            served = replay_filter(
                self.HISTORY, ["a"], 0.5, 0.5, 400, first_evaluated=first
            )
            assert served is not None
            assert served.stats.iterations == iterations
            ranked = replay_top_k(
                self.HISTORY, ["a"], 1, 0.5, 400, first_evaluated=first
            )
            assert ranked is not None and ranked.stats.final_sample_size == 200

    def test_replay_refuses_a_history_that_starts_above_the_floor(self):
        from repro.cache.semantic import replay_filter, replay_top_k

        assert replay_filter(
            self.HISTORY, ["a"], 0.5, 0.5, 400, first_evaluated=(0, 50)
        ) is None
        assert replay_top_k(
            self.HISTORY, ["a"], 1, 0.5, 400, first_evaluated=(1, 150)
        ) is None
