"""Run-time poll audit: every adaptive loop yields between two sample sizes.

The budget and cancellation contract rests on one property of the
paper's Algorithms 1–4: each loop evaluates once per sample size of its
schedule and polls :func:`repro.core.engine.check_interruption` before
growing the sample, so control returns to the caller between any two
sizes. This audit checks that property on real runs instead of in the
call graph. :class:`PollAudit` wraps, for the duration of a test,

* ``repro.core.plan._run_loop``, which every query of every entry point
  enters, to split the run into queries and read the sampler's meter;
* the ``intervals`` method of both score providers, to see each
  evaluated size and the live candidates it covers;
* ``repro.core.engine.check_interruption``, to record the
  ``cells_used`` and ``next_sample_size`` of every poll and its verdict.

Each query is checked as it leaves its loop, by return or by exception.

A query may then read at most one *step* before its first poll, between
two polls and after its last poll: the block up to the next evaluated
size over the live columns — one cell per row per marginal, two per
joint row, so ``|live|`` cells per row for entropy and ``1 + 3 |live|``
for mutual information. The step of a query's first evaluation starts
at row 0, which covers both its first size at the ratcheted floor and
the jump of an MI query to its decision floor. Once a poll stops the
query, it evaluates at most one more size.

The entry points driven are the four ``swope_*`` functions,
:meth:`~repro.core.plan.PlanExecutor.execute`, ``execute_one`` and the
four query methods, :func:`~repro.core.plan.run_exact_stopping`, and
:meth:`~repro.core.plan.PlanExecutor.resume` followed by ``execute``,
on in-memory and mmap stores, with the checkpoint and the cache on and
off. ``repro query`` cannot take a cancellation token, so its cell cap
is swept instead. The cancel-at-every-poll sweep lives in
``tests/test_chaos.py`` and uses this audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import pytest

from repro.cache import PlanCache
from repro.cli import main as cli_main
from repro.core import engine
from repro.core import plan as plan_module
from repro.core.plan import PlanExecutor, QuerySpec, plan_queries, run_exact_stopping
from repro.core.schedule import SampleSchedule
from repro.core.swope import (
    swope_filter_entropy,
    swope_filter_mutual_information,
    swope_top_k_entropy,
    swope_top_k_mutual_information,
)
from repro.data.mmap_store import MmapStore
from repro.testing.chaos import (
    BoundaryFaultToken,
    ChaosPlan,
    SimulatedKillError,
    count_iteration_boundaries,
)
from tests.test_golden_traces import _golden_store, _mixed_specs
from tests.test_plan import _interleaved_specs, _interleaved_store

SEED = 7


@dataclass
class QueryLog:
    """The evaluations and polls of one query loop, in order."""

    spec: QuerySpec
    sampler: Any
    meter_at_start: int
    #: ``("eval", size, weight)`` and ``("poll", cells_used, meter,
    #: next_sample_size, reason)`` tuples.
    events: list[tuple[Any, ...]] = field(default_factory=list)
    cells: int | None = None

    @property
    def polls(self) -> list[tuple[Any, ...]]:
        return [event for event in self.events if event[0] == "poll"]

    @property
    def meter(self) -> int:
        return int(self.sampler.cells_scanned) - self.meter_at_start


class PollAudit:
    """Records every query loop, evaluation and poll of the runs it watches."""

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self.queries: list[QueryLog] = []
        self._running: QueryLog | None = None
        poll = engine.check_interruption
        run_loop = plan_module._run_loop

        def recording_poll(budget, cancellation, **meters):
            reason = poll(budget, cancellation, **meters)
            query = self._current()
            query.events.append(
                ("poll", meters["cells_used"], query.meter,
                 meters["next_sample_size"], reason)
            )
            return reason

        def recording_loop(spec, provider, sampler, *args, **kwargs):
            query = QueryLog(spec, sampler, int(sampler.cells_scanned))
            self.queries.append(query)
            self._running = query
            try:
                return run_loop(spec, provider, sampler, *args, **kwargs)
            finally:
                # Checked as the query leaves its loop, however it leaves:
                # an over-read ends in a shrink error at the next size.
                query.cells = query.meter
                self._running = None
                self._check_query(f"query {len(self.queries) - 1}", query)

        monkeypatch.setattr(engine, "check_interruption", recording_poll)
        monkeypatch.setattr(plan_module, "_run_loop", recording_loop)
        for cls, weight in (
            (engine.EntropyScoreProvider, lambda live: live),
            (engine.MutualInformationScoreProvider, lambda live: 1 + 3 * live),
        ):
            monkeypatch.setattr(
                cls, "intervals", self._recording_intervals(cls.intervals, weight)
            )

    def _current(self) -> QueryLog:
        assert self._running is not None, "a poll or an evaluation outside a query"
        return self._running

    def _recording_intervals(self, intervals, weight):
        def recording(provider, attributes, sample_size):
            self._current().events.append(
                ("eval", sample_size, weight(len(set(attributes))))
            )
            return intervals(provider, attributes, sample_size)

        return recording

    @property
    def polls(self) -> int:
        return sum(len(query.polls) for query in self.queries)

    def check(self) -> None:
        """Every query ran and left its loop; each was checked as it left."""
        assert self.queries, "no query loop ran"
        assert all(query.cells is not None for query in self.queries)

    @staticmethod
    def _check_query(label: str, query: QueryLog) -> None:
        """At most one step between two boundaries of ``query``."""
        label = f"{label} ({query.spec.describe()})"
        evaluated = 0  # the size of the last evaluation, 0 before the first
        cells_before = 0
        pending: list[tuple[Any, ...]] = []
        evaluations_after_stop: int | None = None
        for event in [*query.events, ("end",)]:
            if event[0] == "eval":
                pending.append(event)
                if evaluations_after_stop is not None:
                    evaluations_after_stop += 1
                    assert evaluations_after_stop <= 1, (
                        f"{label} evaluated again after a poll stopped it"
                    )
                continue
            if event[0] == "poll":
                _, cells_used, meter, next_size, reason = event
                assert cells_used == meter, (
                    f"{label}: the budget saw {cells_used} cells, the sampler"
                    f" billed the query {meter}"
                )
                cells = cells_used
            else:
                cells = query.cells
            assert len(pending) <= 1, (
                f"{label} evaluated {len(pending)} sizes"
                f" ({[e[1] for e in pending]}) without a poll in between"
            )
            bound = 0
            if pending:
                _, size, weight = pending[0]
                assert size > evaluated, f"{label} evaluated {size} again"
                bound = (size - evaluated) * weight
                evaluated = size
            assert cells - cells_before <= bound, (
                f"{label} read {cells - cells_before} cells between two"
                f" boundaries; one step up to size {evaluated} allows {bound}"
            )
            if event[0] == "poll":
                assert next_size > evaluated, (
                    f"{label} polled for size {next_size} at size {evaluated}"
                )
                if reason is not None and evaluations_after_stop is None:
                    evaluations_after_stop = 0
            cells_before = cells
            pending = []


@pytest.fixture
def audit(monkeypatch: pytest.MonkeyPatch) -> PollAudit:
    return PollAudit(monkeypatch)


@pytest.fixture(scope="module")
def golden_mmap(tmp_path_factory) -> MmapStore:
    return MmapStore.from_column_store(
        _golden_store(), tmp_path_factory.mktemp("poll") / "golden"
    )


@pytest.fixture(scope="module")
def interleaved():
    return _interleaved_store()


def _stores(kind: str, golden_mmap: MmapStore):
    return _golden_store() if kind == "memory" else golden_mmap


def _mi_first_specs() -> list[QuerySpec]:
    """An MI query that jumps to its decision floor, then an MI filter."""
    return [
        QuerySpec(
            kind="top_k", score="mutual_information", k=2, epsilon=0.9,
            target="target",
        ),
        _mixed_specs()[3],
    ]


# ----------------------------------------------------------------------
# Plans: memory and mmap stores, checkpoint and cache on and off
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cache", [False, True], ids=["no-cache", "cache"])
@pytest.mark.parametrize("checkpoint", [False, True], ids=["no-ckpt", "ckpt"])
@pytest.mark.parametrize("kind", ["memory", "mmap"])
def test_plans_poll_between_sizes(
    audit, golden_mmap, tmp_path, kind, checkpoint, cache
):
    store = _stores(kind, golden_mmap)
    shared = PlanCache(tmp_path / "cache") if cache else None
    for number, specs in enumerate((_mixed_specs(), _mi_first_specs())):
        # With a cache the second pass is a warm rerun of the first.
        for rerun in range(2 if cache else 1):
            executor = PlanExecutor(
                store, seed=SEED, cache=shared,
                checkpoint_path=(
                    tmp_path / f"plan{number}-{rerun}.ckpt" if checkpoint else None
                ),
            )
            executor.execute(plan_queries(store, specs))
    audit.check()
    assert audit.polls > 0


def test_interleaved_plan_polls_per_query(audit, interleaved, tmp_path):
    """Four queries over 200,000 rows, each joining at the ratcheted floor."""
    store = interleaved
    specs = _interleaved_specs()
    boundaries = count_iteration_boundaries(store, specs, seed=SEED)
    audit.queries.clear()
    PlanExecutor(
        store, seed=SEED, checkpoint_path=tmp_path / "interleaved.ckpt"
    ).execute(plan_queries(store, specs))
    audit.check()
    assert sum(1 for query in audit.queries if query.polls) >= 2
    assert audit.polls == boundaries


# ----------------------------------------------------------------------
# Single queries: swope_*, execute_one, the four methods, exact stopping
# ----------------------------------------------------------------------
def _single_query_runs(store, cache):
    schedule = SampleSchedule(store.num_rows, 64)
    common = {"seed": SEED, "schedule": schedule}
    swope_top_k_entropy(store, 2, cache=cache, **common)
    swope_filter_entropy(store, 2.0, cache=cache, **common)
    swope_top_k_mutual_information(
        store, "target", 2, epsilon=0.9, cache=cache, **common
    )
    swope_filter_mutual_information(store, "target", 0.5, cache=cache, **common)
    executor = PlanExecutor(store, seed=SEED, cache=cache)
    executor.top_k_entropy(2, epsilon=0.1, schedule=schedule)
    executor.filter_entropy(2.0, epsilon=0.05)
    executor.top_k_mutual_information("target", 2, epsilon=0.9)
    executor.filter_mutual_information("target", 0.5, epsilon=0.5)
    fresh = PlanExecutor(store, seed=SEED + 1, cache=cache)
    for spec in _mixed_specs():
        fresh.execute_one(spec)
    for spec in _mixed_specs():
        run_exact_stopping(store, spec, seed=SEED, schedule=schedule)


@pytest.mark.parametrize("cache", [False, True], ids=["no-cache", "cache"])
@pytest.mark.parametrize("kind", ["memory", "mmap"])
def test_single_queries_poll_between_sizes(audit, golden_mmap, kind, cache):
    store = _stores(kind, golden_mmap)
    _single_query_runs(store, PlanCache() if cache else None)
    audit.check()
    assert all(query.polls for query in audit.queries[-4:])  # exact stopping


# ----------------------------------------------------------------------
# Resume: kill at every boundary, then resume and execute
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cache", [False, True], ids=["no-cache", "cache"])
@pytest.mark.parametrize("kind", ["memory", "mmap"])
def test_resumed_plans_poll_between_sizes(
    audit, golden_mmap, tmp_path, kind, cache
):
    store = _stores(kind, golden_mmap)
    for number, specs in enumerate((_mixed_specs(), _mi_first_specs())):
        plan = plan_queries(store, specs)
        boundaries = count_iteration_boundaries(store, specs, seed=SEED)
        for kill_at in range(boundaries):
            path = tmp_path / f"plan{number}-kill{kill_at}.ckpt"
            with pytest.raises(SimulatedKillError):
                PlanExecutor(store, seed=SEED, checkpoint_path=path).execute(
                    plan, cancellation=BoundaryFaultToken(ChaosPlan.kill_at(kill_at))
                )
            resumed = PlanExecutor.resume(
                path, store, cache_dir=tmp_path / "cache" if cache else None
            )
            resumed.execute(resumed.resumed_plan())
    audit.check()


# ----------------------------------------------------------------------
# repro query: sweep the cell cap, the run stops within one step of it
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "query",
    [
        ["topk-entropy", "-k", "2", "--epsilon", "0.05"],
        ["filter-entropy", "--eta", "2.0", "--epsilon", "0.02"],
        ["topk-mi", "--target", "target", "-k", "2", "--epsilon", "0.9"],
        ["filter-mi", "--target", "target", "--eta", "0.5"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_stops_within_one_step_of_the_cell_cap(
    audit, golden_mmap, capsys, query
):
    stopped = 0
    for cap in (1, 50, 300, 1_000, 3_000, 6_000, 12_000, 30_000):
        audit.queries.clear()
        argv = ["query", *query, "--store", f"mmap:{golden_mmap.directory}",
                "--seed", str(SEED), "--max-cells", str(cap)]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        # One step at most before the first poll, between two polls and
        # after the last: with every poll below the cap but the last, the
        # run ends within one step of the cap.
        audit.check()
        [run] = audit.queries
        polls = run.polls
        assert all(poll[4] is None for poll in polls[:-1])
        assert all(poll[1] < cap for poll in polls if poll[4] is None)
        if polls and polls[-1][4] is not None:
            stopped += 1
            assert polls[-1][4] == "cell_budget" and polls[-1][1] >= cap
            assert "guarantee: NOT met (cell_budget)" in out
        else:
            assert "NOT met" not in out
    assert stopped >= 3
