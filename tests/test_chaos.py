"""Chaos tests: kill/resume at every boundary, flaky-store recovery.

The durability contract under test (see ``docs/RESILIENCE.md``):

* kill the executor at *every* iteration boundary of the ``plan_mixed``
  golden workload (and of a plan whose entropy filter carries joint
  deltas to a later MI filter, and of a plan whose first MI query jumps
  to its decision floor), resume from the checkpoint, and the final answers,
  guarantee statuses, work accounting, *and the post-resume trace
  events* are byte-identical to the uninterrupted checkpointing run;
  a checkpoint also resumes under a substituted counting backend, and
  a cell-budgeted plan resumes to its uninterrupted budgeted answers;
* with a plan cache next to the checkpoint, kill + resume leaves the
  uninterrupted run's partition: the same counters and answers;
* a flaky :class:`~repro.data.column_store.ColumnStore` (injected
  ``OSError`` mid-plan) degrades to retry → checkpoint → resume through
  :func:`~repro.durability.recovery.execute_plan_with_recovery`, with
  the same answers as a healthy run;
* a torn (truncated) checkpoint is detected and recovery falls back to
  a fresh run instead of resuming from garbage;
* the CLI round-trips ``--checkpoint``/``--resume``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.budget import QueryBudget
from repro.core.plan import PlanExecutor, QuerySpec, plan_queries
from repro.data.column_store import ColumnStore
from repro.durability import execute_plan_with_recovery
from repro.exceptions import ParameterError
from repro.obs import InMemorySink
from repro.obs.sinks import serialize_event
from repro.testing.chaos import (
    BoundaryFaultToken,
    ChaosPlan,
    SimulatedKillError,
    count_iteration_boundaries,
    plan_fingerprint,
    result_fingerprint,
    truncate_file,
)
from repro.testing.faults import FlakyStore
from tests.test_durability import _assert_counters_equal
from tests.test_plan import _interleaved_specs, _interleaved_store

SEED = 7


def _golden_store() -> ColumnStore:
    """The store pinned by the golden traces (tests/test_golden_traces.py)."""
    data_rng = np.random.default_rng(20210614)
    n = 2000
    target = data_rng.integers(0, 6, n)
    keep = data_rng.random(n) < 0.7
    noisy = np.where(keep, target, data_rng.integers(0, 6, n))
    return ColumnStore(
        {
            "wide": data_rng.integers(0, 64, n),
            "medium": data_rng.integers(0, 12, n),
            "narrow": data_rng.integers(0, 3, n),
            "target": target,
            "noisy": noisy,
            "independent": data_rng.integers(0, 6, n),
        }
    )


def _mixed_specs() -> list[QuerySpec]:
    """The four-query heterogeneous plan of the plan_mixed golden."""
    return [
        QuerySpec(kind="top_k", score="entropy", k=2, epsilon=0.1, prune=False),
        QuerySpec(kind="filter", score="entropy", threshold=2.0, epsilon=0.05),
        QuerySpec(
            kind="top_k", score="mutual_information", k=2, epsilon=0.5,
            target="target", prune=False,
        ),
        QuerySpec(
            kind="filter", score="mutual_information", threshold=0.5,
            epsilon=0.5, target="target",
        ),
    ]


def _trace_lines(sink: InMemorySink) -> list[str]:
    return [serialize_event(event) for event in sink.events]


# ----------------------------------------------------------------------
# The kill/resume matrix
# ----------------------------------------------------------------------
def test_kill_and_resume_at_every_boundary(tmp_path):
    """Bit-identical answers and trace suffix from every kill point."""
    _assert_resumes_identically(tmp_path, _golden_store(), _mixed_specs())


def test_kill_and_resume_across_a_carried_joint(tmp_path):
    """The same from every boundary of a plan whose entropy filter holds
    joint deltas for a later MI filter: a resumed run has no held delta
    and gathers those blocks instead."""
    store = _interleaved_store()
    specs = _interleaved_specs()
    assert [s.score for s in plan_queries(store, specs).specs] == [
        "entropy", "mutual_information", "entropy", "mutual_information",
    ]
    _assert_resumes_identically(tmp_path, store, specs)


def test_kill_and_resume_an_mi_first_plan(tmp_path):
    """A plan whose first query is MI and starts below its decision floor.

    That query polls once at its jump to the floor (kill point 0) and
    next at its first boundary after the floor (kill point 1), where
    only the plan-start checkpoint exists; from every kill point the
    resumed run ends with the uninterrupted answers and trace.
    """
    store = _golden_store()
    specs = [
        # ε = 0.9: the stop rule can fire from 1024 rows, so the query
        # runs past its floor (at 0.5 it would evaluate only at N)
        QuerySpec(
            kind="top_k", score="mutual_information", k=2, epsilon=0.9,
            target="target",
        ),
        _mixed_specs()[3],
    ]
    sink = InMemorySink()
    plan = plan_queries(store, specs)
    PlanExecutor(store, seed=SEED).execute(plan, trace=sink)
    assert plan.specs[0].target is not None
    assert sink.of_kind("iteration")[0].index > 0  # evaluated first at the floor
    token = BoundaryFaultToken(ChaosPlan.kill_at(1))
    with pytest.raises(SimulatedKillError):
        PlanExecutor(
            store, seed=SEED, checkpoint_path=tmp_path / "floor.ckpt"
        ).execute(plan, cancellation=token)
    assert token.fired == [(1, "kill")]
    _assert_resumes_identically(tmp_path, store, specs)


def _assert_resumes_identically(tmp_path, store, specs) -> None:
    plan = plan_queries(store, specs)
    boundaries = count_iteration_boundaries(store, specs, seed=SEED)
    assert boundaries > 0

    reference_sink = InMemorySink()
    reference = PlanExecutor(
        store, seed=SEED,
        checkpoint_path=tmp_path / "reference.ckpt", trace=reference_sink,
    ).execute(plan)
    reference_fp = plan_fingerprint(reference)
    reference_lines = _trace_lines(reference_sink)

    for kill_at in range(boundaries):
        path = tmp_path / f"kill-{kill_at}.ckpt"
        token = BoundaryFaultToken(ChaosPlan.kill_at(kill_at))
        with pytest.raises(SimulatedKillError):
            PlanExecutor(
                store, seed=SEED, checkpoint_path=path, trace=InMemorySink(),
            ).execute(plan, cancellation=token)
        assert path.exists(), f"no checkpoint survived kill at {kill_at}"

        resumed_sink = InMemorySink()
        resumed_executor = PlanExecutor.resume(
            path, store, trace=resumed_sink
        )
        outcome = resumed_executor.execute(resumed_executor.resumed_plan())
        assert plan_fingerprint(outcome) == reference_fp, f"kill at {kill_at}"

        # Every post-resume event must be byte-identical to the tail of
        # the uninterrupted run's stream (plan_resumed itself is the one
        # event only a resumed run emits).
        resumed_lines = _trace_lines(resumed_sink)
        assert '"event":"plan_resumed"' in resumed_lines[0]
        rest = resumed_lines[1:]
        assert rest == reference_lines[-len(rest):], f"kill at {kill_at}"


def _partition_state(directory) -> tuple[dict, list[dict]]:
    """Decoded counters and answers of the one partition in ``directory``."""
    from repro.cache import CACHE_FORMAT, CACHE_SCHEMA_VERSION
    from repro.durability.checkpoint import decode_counters, read_envelope

    (path,) = directory.glob("part-*.json")
    payload = read_envelope(
        path, marker=CACHE_FORMAT, schema_version=CACHE_SCHEMA_VERSION
    )
    return decode_counters(payload), payload["answers"]


def _without_cells(outcome) -> dict:
    """Result fingerprints without their cell meters."""
    prints = {}
    for name, result in outcome.results.items():
        fp = result_fingerprint(result)
        del fp["stats"]["cells_scanned"]
        prints[name] = fp
    return prints


def _answer_without_cells(answer: dict) -> dict:
    stats = dict(answer["result"]["stats"])
    del stats["cells_scanned"], stats["cells_saved"]
    return {**answer, "result": {**answer["result"], "stats": stats}}


def test_kill_and_resume_with_checkpoint_and_cache(tmp_path, monkeypatch):
    """A kill at any boundary of a plan that checkpoints and caches, then
    a resume against the same cache directory, leaves the partition an
    uninterrupted run leaves. The killed plan's exit flushes its counters,
    so the resumed run is served some of them: those cells count as saved
    instead of scanned, and nothing else differs."""
    import time

    monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
    store = _golden_store()
    specs = _mixed_specs()
    plan = plan_queries(store, specs)
    boundaries = count_iteration_boundaries(store, specs, seed=SEED)
    reference = PlanExecutor(
        store, seed=SEED, checkpoint_path=tmp_path / "reference.ckpt",
        cache_dir=tmp_path / "reference",
    ).execute(plan)
    counters, answers = _partition_state(tmp_path / "reference")
    assert len(answers) == len(specs)
    expected = {
        (a["kind"], a["score"], a["param"]): _answer_without_cells(a)
        for a in answers
    }

    for kill_at in range(boundaries):
        path = tmp_path / f"kill-{kill_at}.ckpt"
        cache_dir = tmp_path / f"cache-{kill_at}"
        with pytest.raises(SimulatedKillError):
            PlanExecutor(
                store, seed=SEED, checkpoint_path=path, cache_dir=cache_dir,
            ).execute(
                plan, cancellation=BoundaryFaultToken(ChaosPlan.kill_at(kill_at))
            )
        resumed = PlanExecutor.resume(path, store, cache_dir=cache_dir)
        outcome = resumed.execute(resumed.resumed_plan())
        assert _without_cells(outcome) == _without_cells(reference), kill_at
        saved = sum(r.stats.cells_saved for r in outcome.results.values())
        assert outcome.stats.cells_scanned + saved == reference.stats.cells_scanned

        got_counters, got_answers = _partition_state(cache_dir)
        _assert_counters_equal(got_counters, counters)
        # A query resumed mid-loop stores no answer; every answer stored
        # is the uninterrupted run's.
        assert len(got_answers) >= len(specs) - 1, kill_at
        for answer in got_answers:
            key = (answer["kind"], answer["score"], answer["param"])
            assert _answer_without_cells(answer) == expected[key], kill_at


def test_kill_and_resume_a_cell_budgeted_plan(tmp_path):
    """Every boundary of a ``max_cells``-budgeted plan resumes to the
    uninterrupted budgeted answers.

    The checkpoint saves the residual allowance, and the resumed run
    measures it from the checkpoint's meter: cells spent before the
    checkpoint are charged once, not again against the residual.
    """
    store = _interleaved_store()
    plan = plan_queries(store, _interleaved_specs())
    unbudgeted = PlanExecutor(store, seed=SEED).execute(plan)
    budget = QueryBudget(max_cells=unbudgeted.stats.cells_scanned // 5)
    reference = PlanExecutor(store, seed=SEED, budget=budget).execute(plan)
    reasons = {
        result.guarantee.stopping_reason
        for result in reference.results.values()
        if result.guarantee is not None
    }
    assert reasons == {"converged", "cell_budget"}  # the budget binds midway
    reference_fp = plan_fingerprint(reference)

    kill_at = 0
    while True:
        path = tmp_path / f"budgeted-{kill_at}.ckpt"
        token = BoundaryFaultToken(ChaosPlan.kill_at(kill_at))
        try:
            PlanExecutor(
                store, seed=SEED, budget=budget, checkpoint_path=path
            ).execute(plan, cancellation=token)
        except SimulatedKillError:
            pass
        else:
            break  # the plan ends before this boundary: every one was hit
        resumed = PlanExecutor.resume(path, store)
        outcome = resumed.execute(resumed.resumed_plan())
        assert plan_fingerprint(outcome) == reference_fp, f"kill at {kill_at}"
        kill_at += 1
    assert kill_at > 1


def test_resumed_plan_reuses_planned_groups(tmp_path, monkeypatch):
    """Resume rebuilds the interrupted plan from checkpoint metadata.

    The executor used to re-run count-group extraction on resume(),
    which silently re-plans: a cost-model change between versions (or a
    planner bug fix) would hand the resumed run different groups and a
    different schedule than the checkpoint's partial results were
    computed under. The checkpoint now carries the planner metadata, so
    resumed_plan() must never call plan_queries() for a v2 checkpoint.
    """
    store = _golden_store()
    specs = _mixed_specs()
    plan = plan_queries(store, specs)
    reference_fp = plan_fingerprint(
        PlanExecutor(store, seed=SEED).execute(plan)
    )
    path = tmp_path / "replan.ckpt"
    token = BoundaryFaultToken(ChaosPlan.kill_at(2))
    with pytest.raises(SimulatedKillError):
        PlanExecutor(store, seed=SEED, checkpoint_path=path).execute(
            plan, cancellation=token
        )

    import repro.core.plan as plan_module

    def _replanned(*_args, **_kwargs):
        raise AssertionError("resume re-ran the planner")

    monkeypatch.setattr(plan_module, "plan_queries", _replanned)
    resumed_executor = PlanExecutor.resume(path, store)
    resumed_plan = resumed_executor.resumed_plan()
    monkeypatch.undo()

    assert resumed_plan.marginal_attributes == plan.marginal_attributes
    assert resumed_plan.joint_targets == plan.joint_targets
    assert resumed_plan.order == plan.order
    assert resumed_plan.submission_names == plan.submission_names
    assert resumed_plan.estimated_cells == plan.estimated_cells
    assert resumed_plan.names == plan.names
    assert plan_fingerprint(resumed_executor.execute(resumed_plan)) == reference_fp


def test_cross_backend_resume_is_identical(tmp_path, sharded_backend):
    """A checkpoint written under one backend resumes under another."""
    store = _golden_store()
    plan = plan_queries(store, _mixed_specs())
    reference_fp = plan_fingerprint(
        PlanExecutor(store, seed=SEED, backend="numpy").execute(plan)
    )
    path = tmp_path / "cross.ckpt"
    token = BoundaryFaultToken(ChaosPlan.kill_at(2))
    with pytest.raises(SimulatedKillError):
        PlanExecutor(
            store, seed=SEED, backend="numpy", checkpoint_path=path
        ).execute(plan, cancellation=token)
    resumed = PlanExecutor.resume(path, store, backend=sharded_backend)
    outcome = resumed.execute(resumed.resumed_plan())
    assert plan_fingerprint(outcome) == reference_fp


def test_cancel_fault_degrades_with_honest_guarantee():
    store = _golden_store()
    plan = plan_queries(store, _mixed_specs())
    token = BoundaryFaultToken(ChaosPlan.from_steps("run:1 cancel"))
    outcome = PlanExecutor(store, seed=SEED).execute(plan, cancellation=token)
    assert token.fired == [(1, "cancel")]
    degraded = [
        result
        for result in outcome.results.values()
        if result.guarantee is not None and not result.guarantee.guarantee_met
    ]
    assert degraded, "the cancelled query must report a degraded guarantee"
    assert all(
        result.guarantee.stopping_reason == "cancelled" for result in degraded
    )


# ----------------------------------------------------------------------
# The fault-plan DSL
# ----------------------------------------------------------------------
class TestChaosPlan:
    def test_dsl_parses_runs_and_faults(self):
        plan = ChaosPlan.from_steps("run:3 kill run:2 io-error cancel")
        assert plan.faults == ((3, "kill"), (6, "io_error"), (7, "cancel"))

    def test_dsl_accepts_sequences_and_commas(self):
        assert ChaosPlan.from_steps(["run:1", "cancel"]) == ChaosPlan.from_steps(
            "run:1, cancel"
        )

    def test_dsl_rejects_unknown_tokens(self):
        with pytest.raises(ParameterError, match="unknown chaos step"):
            ChaosPlan.from_steps("run:1 explode")
        with pytest.raises(ParameterError, match="run:N"):
            ChaosPlan.from_steps("run:x kill")

    def test_duplicate_boundaries_rejected(self):
        with pytest.raises(ParameterError, match="duplicate fault"):
            ChaosPlan(faults=((2, "kill"), (2, "cancel")))

    def test_io_error_action_raises_oserror(self):
        token = BoundaryFaultToken(ChaosPlan.from_steps("io-error"))
        with pytest.raises(OSError, match="injected IO failure"):
            token.cancelled


# ----------------------------------------------------------------------
# Recovery: retry → checkpoint → resume
# ----------------------------------------------------------------------
def test_flaky_boundary_recovers_to_identical_answers(tmp_path):
    """An OSError mid-plan retries from the checkpoint, not from scratch."""
    store = _golden_store()
    specs = _mixed_specs()
    reference_fp = plan_fingerprint(
        PlanExecutor(store, seed=SEED).execute(plan_queries(store, specs))
    )
    sleeps: list[float] = []
    token = BoundaryFaultToken(ChaosPlan.from_steps("run:2 io-error"))
    outcome = execute_plan_with_recovery(
        store, specs,
        checkpoint_path=tmp_path / "recover.ckpt",
        seed=SEED, jitter=0.0, sleep=sleeps.append,
        cancellation=token,
    )
    assert token.fired == [(2, "io_error")]
    assert len(sleeps) == 1  # exactly one retry, after one backoff delay
    assert plan_fingerprint(outcome) == reference_fp


def test_flaky_store_reads_recover(tmp_path):
    """Column reads failing transiently degrade to retry → resume."""
    store = _golden_store()
    specs = _mixed_specs()
    reference_fp = plan_fingerprint(
        PlanExecutor(store, seed=SEED).execute(plan_queries(store, specs))
    )
    flaky = FlakyStore(store, fail_times=2)
    outcome = execute_plan_with_recovery(
        flaky, specs,
        checkpoint_path=tmp_path / "flaky.ckpt",
        seed=SEED, jitter=0.0, sleep=lambda _s: None,
    )
    assert flaky.failures_injected == 2
    assert plan_fingerprint(outcome) == reference_fp


def test_recovery_falls_back_on_torn_checkpoint(tmp_path):
    """A truncated checkpoint is refused, and recovery restarts fresh."""
    store = _golden_store()
    specs = _mixed_specs()
    path = tmp_path / "torn.ckpt"
    token = BoundaryFaultToken(ChaosPlan.kill_at(3))
    with pytest.raises(SimulatedKillError):
        PlanExecutor(store, seed=SEED, checkpoint_path=path).execute(
            plan_queries(store, specs), cancellation=token
        )
    truncate_file(path, path.stat().st_size // 3)
    reference_fp = plan_fingerprint(
        PlanExecutor(store, seed=SEED).execute(plan_queries(store, specs))
    )
    outcome = execute_plan_with_recovery(
        store, specs, checkpoint_path=path, seed=SEED,
    )
    assert plan_fingerprint(outcome) == reference_fp


def test_kill_is_never_retried(tmp_path):
    """SimulatedKillError models SIGKILL: recovery must not absorb it."""
    store = _golden_store()
    specs = _mixed_specs()
    token = BoundaryFaultToken(ChaosPlan.kill_at(1))
    with pytest.raises(SimulatedKillError):
        execute_plan_with_recovery(
            store, specs,
            checkpoint_path=tmp_path / "kill.ckpt", seed=SEED,
            cancellation=token,
        )


# ----------------------------------------------------------------------
# CLI round trip
# ----------------------------------------------------------------------
def test_cli_checkpoint_resume_round_trip(tmp_path, capsys):
    import json

    from repro.cli import main

    plan_file = tmp_path / "plan.json"
    plan_file.write_text(
        json.dumps(
            [
                {"kind": "topk-entropy", "k": 3, "name": "top"},
                {"kind": "filter-entropy", "threshold": 1.5, "name": "filt"},
            ]
        )
    )
    checkpoint = tmp_path / "cli.ckpt"
    common = ["--dataset", "cdc", "--scale", "0.02", "--seed", "3"]
    assert main(
        ["query", "--queries", str(plan_file), "--checkpoint", str(checkpoint)]
        + common
    ) == 0
    first = capsys.readouterr().out
    assert checkpoint.exists()
    assert main(["query", "--resume", str(checkpoint)] + common) == 0
    second = capsys.readouterr().out
    # identical answers and shared-scan accounting, replayed from the file
    assert first.split("shared-scan")[0] == second.split("shared-scan")[0]


def test_cli_checkpoint_flags_need_batch_mode(capsys):
    from repro.cli import main

    assert main(["query", "topk-entropy", "--checkpoint", "/tmp/x.ckpt"]) == 2
    assert "--checkpoint" in capsys.readouterr().err
