"""Run-time determinism audit: no clock or hash seed reaches the outputs
that same-seed runs must reproduce byte for byte.

Golden traces, checkpoint resumes, plan-cache warm starts and result
fingerprints all rest on one property: a run is a pure function of its
data, its plan and its seed. This audit checks it where it matters, on
the outputs of real runs, instead of on a model of the code.

* **Two clocks.** The mixed example plan (all four query kinds) runs
  with a checkpoint, a plan cache, a JSONL trace and a large deadline,
  once under each of two fake clocks that start and advance differently
  (``time.perf_counter``, ``time.monotonic`` and ``time.time``). This
  covers a cold run, a warm rerun from the cache, a resume from a
  mid-plan checkpoint, and the CLI ``query`` path.
* **What must match.** The trace JSONL, the plan and result fingerprints
  and the answers are byte-identical. Every checkpoint and cache
  partition written is identical apart from :data:`WALL_CLOCK_FIELDS`.
  The list is exact: a new field that differs fails the audit until it
  is declared, and a declared field that stops differing fails it too.
* **Two hash seeds.** The CLI plan runs in two subprocesses under
  ``PYTHONHASHSEED=0`` and ``1``, so the iteration order of sets of
  strings and every ``hash()`` of a string differ between them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.cli import main
from repro.core import load_plan
from repro.core.budget import QueryBudget
from repro.core.plan import PlanExecutor, plan_queries
from repro.durability import atomic
from repro.obs import JsonlSink
from repro.synth.datasets import load_dataset
from repro.testing.chaos import (
    BoundaryFaultToken,
    ChaosPlan,
    SimulatedKillError,
    count_iteration_boundaries,
    plan_fingerprint,
)

ROOT = Path(__file__).resolve().parent.parent
PLAN_FILE = ROOT / "examples" / "plan_mixed.json"
DATASET, SCALE = "cdc", 0.01
SEED = 3
#: Far beyond any run's length under either clock: no query degrades.
DEADLINE_MS = 1e9

_TIMINGS = ("wall_seconds", "counting_seconds", "bounds_seconds")

#: Paths (list indices written ``[]``) of the durable JSON fields that
#: hold wall-clock readings. The residual deadline is wall-clock by
#: contract (a resumed run gets the real time left, docs/RESILIENCE.md);
#: a result's phase timings are kept so a restored result reports them;
#: the envelope's sha256 covers both.
WALL_CLOCK_FIELDS = frozenset(
    {
        "sha256",
        "payload.progress.residual_budget.deadline_ms",
        *(f"payload.progress.results[].result.stats.{t}" for t in _TIMINGS),
        *(f"payload.answers[].result.stats.{t}" for t in _TIMINGS),
    }
)

#: (start, step) of the two fake clocks.
CLOCKS = ((1_000.0, 0.001), (500_000.0, 0.25))


def differing_paths(a: Any, b: Any, path: str = "") -> set[str]:
    """The paths at which two JSON documents differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        found: set[str] = set()
        for key in sorted(set(a) | set(b)):
            child = f"{path}.{key}" if path else key
            if key in a and key in b:
                found |= differing_paths(a[key], b[key], child)
            else:
                found.add(child)
        return found
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        found = set()
        for x, y in zip(a, b):
            found |= differing_paths(x, y, f"{path}[]")
        return found
    return set() if a == b else {path}


@dataclass
class Run:
    """What one run leaves behind that same-seed runs must reproduce."""

    trace: bytes
    #: The plan fingerprints of a library run, the answer lines of a CLI run.
    answers: str
    #: Every durable write, in order: (path relative to the run's root, bytes).
    writes: list[tuple[str, bytes]]


def _record(
    monkeypatch: pytest.MonkeyPatch,
    root: Path,
    body: Callable[[JsonlSink], list[Any]],
) -> Run:
    """Run ``body`` with a trace sink under ``root``, recording every
    durable write; ``body`` returns the plan results to fingerprint."""
    writes: list[tuple[str, bytes]] = []
    original = atomic.atomic_write_bytes

    def spy(target, data):
        writes.append((Path(target).relative_to(root).as_posix(), bytes(data)))
        return original(target, data)

    monkeypatch.setattr(atomic, "atomic_write_bytes", spy)
    sink = JsonlSink(root / "trace.jsonl")
    try:
        outcomes = body(sink)
    finally:
        sink.close()
        monkeypatch.setattr(atomic, "atomic_write_bytes", original)
    prints = [plan_fingerprint(outcome) for outcome in outcomes]
    return Run(
        trace=(root / "trace.jsonl").read_bytes(),
        answers=json.dumps(prints, sort_keys=True),
        writes=writes,
    )


def assert_same_run(a: Run, b: Run) -> set[str]:
    """Require two runs to match; return the wall-clock fields that differ."""
    assert a.trace, "the run wrote no trace"
    assert a.trace == b.trace
    assert a.answers == b.answers
    assert [name for name, _ in a.writes] == [name for name, _ in b.writes]
    differing: set[str] = set()
    for (name, left), (_, right) in zip(a.writes, b.writes):
        found = differing_paths(json.loads(left), json.loads(right))
        undeclared = found - WALL_CLOCK_FIELDS
        assert not undeclared, (
            f"{name}: fields differ between clocks but are not declared"
            f" wall-clock: {sorted(undeclared)}"
        )
        differing |= found
    return differing


@pytest.fixture(scope="module")
def store():
    return load_dataset(DATASET, scale=SCALE).store


@pytest.fixture(scope="module")
def plan(store):
    return plan_queries(store, load_plan(PLAN_FILE))


def _executor(store, root: Path, *, budgeted: bool = True) -> PlanExecutor:
    return PlanExecutor(
        store, seed=SEED,
        budget=QueryBudget(deadline_ms=DEADLINE_MS) if budgeted else None,
        checkpoint_path=root / "plan.ckpt", cache_dir=root / "cache",
    )


def _answers(outcome) -> dict[str, list[str]]:
    return {name: list(result.attributes) for name, result in outcome.results.items()}


def _under_clocks(
    tmp_path: Path, fake_clocks, scenario: Callable[[Path], Run]
) -> tuple[Run, Run]:
    runs = []
    for index, (start, step) in enumerate(CLOCKS):
        root = tmp_path / f"clock-{index}"
        root.mkdir()
        fake_clocks(start, step)
        runs.append(scenario(root))
    return runs[0], runs[1]


def test_cold_run_differs_in_exactly_the_declared_fields(
    tmp_path, monkeypatch, fake_clocks, store, plan
):
    def cold(root: Path) -> Run:
        return _record(
            monkeypatch, root,
            lambda sink: [_executor(store, root).execute(plan, trace=sink)],
        )

    differing = assert_same_run(*_under_clocks(tmp_path, fake_clocks, cold))
    assert differing == WALL_CLOCK_FIELDS, (
        "declared wall-clock fields that no longer differ between clocks:"
        f" {sorted(WALL_CLOCK_FIELDS - differing)}"
    )


def test_warm_rerun_from_the_cache(
    tmp_path, monkeypatch, fake_clocks, store, plan
):
    # A rerun under the deadline and an unbudgeted one are both served
    # the cached answers, whose stats carry the cold run's timings: a
    # deadline never blocks a replay that costs no cells.
    def warm(root: Path) -> Run:
        cold = _executor(store, root).execute(plan)
        assert cold.stats.cells_scanned > 0

        def body(sink: JsonlSink) -> list[Any]:
            budgeted = _executor(store, root).execute(plan, trace=sink)
            answers = _executor(store, root, budgeted=False).execute(
                plan, trace=sink
            )
            for outcome in (budgeted, answers):
                assert outcome.stats.cells_scanned == 0
                assert _answers(outcome) == _answers(cold)
            return [budgeted, answers]

        return _record(monkeypatch, root, body)

    assert_same_run(*_under_clocks(tmp_path, fake_clocks, warm))


def test_resume_from_a_mid_plan_checkpoint(
    tmp_path, monkeypatch, fake_clocks, store, plan
):
    kill_at = count_iteration_boundaries(store, list(plan), seed=SEED) // 2

    def resumed(root: Path) -> Run:
        def body(sink: JsonlSink) -> list[Any]:
            token = BoundaryFaultToken(ChaosPlan.kill_at(kill_at))
            with pytest.raises(SimulatedKillError):
                _executor(store, root).execute(
                    plan, trace=sink, cancellation=token
                )
            executor = PlanExecutor.resume(
                root / "plan.ckpt", store, trace=sink, cache_dir=root / "cache"
            )
            return [executor.execute(executor.resumed_plan())]

        return _record(monkeypatch, root, body)

    first, second = _under_clocks(tmp_path, fake_clocks, resumed)
    assert b'"plan_resumed"' in first.trace
    assert_same_run(first, second)


def _cli_args(root: Path) -> list[str]:
    return [
        "query", "--queries", str(PLAN_FILE),
        "--dataset", DATASET, "--scale", str(SCALE),
        "--seed", str(SEED), "--timeout-ms", str(DEADLINE_MS),
        "--checkpoint", str(root / "plan.ckpt"),
        "--cache-dir", str(root / "cache"),
        "--trace-out", str(root / "trace.jsonl"),
    ]


def _cli_run(root: Path, stdout: str) -> Run:
    """A CLI run's trace, its output without the wall-clock ``stats:``
    lines, and the checkpoint and cache files it left."""
    lines = stdout.replace(str(root), "<root>").splitlines()
    return Run(
        trace=(root / "trace.jsonl").read_bytes(),
        answers="\n".join(line for line in lines if not line.startswith("stats:")),
        writes=[
            (path.relative_to(root).as_posix(), path.read_bytes())
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name != "trace.jsonl"
        ],
    )


def test_cli_query_under_two_clocks(tmp_path, capsys, fake_clocks):
    def cli(root: Path) -> Run:
        assert main(_cli_args(root)) == 0
        return _cli_run(root, capsys.readouterr().out)

    first, second = _under_clocks(tmp_path, fake_clocks, cli)
    assert "shared-scan accounting:" in first.answers
    assert assert_same_run(first, second) == WALL_CLOCK_FIELDS


def test_cli_query_under_two_hash_seeds(tmp_path):
    runs = []
    for hash_seed in ("0", "1"):
        root = tmp_path / f"hashseed-{hash_seed}"
        root.mkdir()
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *_cli_args(root)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(_cli_run(root, proc.stdout))
    assert_same_run(*runs)


def test_differing_paths_names_each_field():
    before = {"sha256": "a", "payload": {"results": [{"x": 1, "y": [1, 2]}]}}
    after = {"sha256": "b", "payload": {"results": [{"x": 2, "y": [1]}], "z": 0}}
    assert differing_paths(before, after) == {
        "sha256", "payload.results[].x", "payload.results[].y", "payload.z",
    }
    assert differing_paths(before, before) == set()
