"""Golden-trace regression tests for the structured event stream.

Each of the four SWOPE query algorithms is run against a fixed store at a
fixed seed with an explicit multi-iteration schedule, and its JSONL trace
is compared byte-for-byte against a committed golden file under
``tests/golden/``; a fifth case drives a mixed four-query plan through
:class:`~repro.core.plan.PlanExecutor` so the plan-level events
(``plan_start``/``query_retired``/``plan_end``) are pinned too. Trace
events carry no wall-clock fields, so the stream is a pure function of
the store's sampling layout and the seeded run offset — any diff is a
real behaviour change in the engine, not noise.

The first line of every trace is the schema header; it is parsed (not
byte-compared) so bumping ``TRACE_SCHEMA_VERSION`` fails loudly in
``test_schema_version_matches_goldens`` rather than as a confusing
whole-file diff. Every case also runs on a memory-mapped copy of the
store, which holds the same layout on disk, against the same goldens,
and with the decision floor of MI queries switched off, where only the
``iteration`` events below each floor may differ.
Regenerate the goldens after an intentional change with::

    PYTHONPATH=src python -m pytest tests/test_golden_traces.py --update-golden
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import plan as plan_module
from repro.core.plan import PlanExecutor, QuerySpec, plan_queries
from repro.core.schedule import SampleSchedule
from repro.core.swope import (
    swope_filter_entropy,
    swope_filter_mutual_information,
    swope_top_k_entropy,
    swope_top_k_mutual_information,
)
from repro.data.backends import CountingBackend
from repro.data.column_store import ColumnSource, ColumnStore
from repro.data.mmap_store import MmapStore
from repro.obs import TRACE_SCHEMA_VERSION, JsonlSink

GOLDEN_DIR = Path(__file__).parent / "golden"
SEED = 7
INITIAL_SAMPLE = 64


def _golden_store() -> ColumnStore:
    """Fixed store mixing separated entropies and graded MI candidates."""
    rng = np.random.default_rng(20210614)
    n = 2000
    target = rng.integers(0, 6, n)
    keep = rng.random(n) < 0.7
    noisy = np.where(keep, target, rng.integers(0, 6, n))
    return ColumnStore(
        {
            "wide": rng.integers(0, 64, n),
            "medium": rng.integers(0, 12, n),
            "narrow": rng.integers(0, 3, n),
            "target": target,
            "noisy": noisy,
            "independent": rng.integers(0, 6, n),
        }
    )


def _mixed_specs() -> list[QuerySpec]:
    """The four-query heterogeneous plan pinned by the plan_mixed golden."""
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


def _run_case(
    case: str,
    sink: JsonlSink,
    backend: str | CountingBackend | None = None,
    store: ColumnSource | None = None,
) -> None:
    store = _golden_store() if store is None else store
    if case == "plan_mixed":
        executor = PlanExecutor(store, seed=SEED, backend=backend)
        plan = plan_queries(store, _mixed_specs())
        executor.execute(plan, trace=sink)
        return
    if case == "plan_cached":
        # Pin the v4 cache events: an untraced cold run populates an
        # in-memory plan cache, then two traced warm plans exercise a
        # semantic-dominance hit (k'=1 served from the stored k=2), an
        # exact hit, and a fresh query (cache_miss + live iterations).
        from repro.cache import PlanCache

        cache = PlanCache()
        tk2 = QuerySpec(
            kind="top_k", score="entropy", k=2, epsilon=0.1, prune=False
        )
        tk1 = QuerySpec(
            kind="top_k", score="entropy", k=1, epsilon=0.1, prune=False
        )
        f_mi = QuerySpec(
            kind="filter", score="mutual_information", threshold=0.5,
            epsilon=0.5, target="target",
        )
        cold = PlanExecutor(store, seed=SEED, backend=backend, cache=cache)
        cold.execute(plan_queries(store, [tk2]))
        warm_semantic = PlanExecutor(
            store, seed=SEED, backend=backend, cache=cache
        )
        warm_semantic.execute(plan_queries(store, [tk1]), trace=sink)
        warm_exact = PlanExecutor(
            store, seed=SEED, backend=backend, cache=cache
        )
        warm_exact.execute(plan_queries(store, [tk2]), trace=sink)
        # The MI filter was never cached: a fresh executor (prefix floor 0)
        # records a cache_miss followed by a live multi-iteration run.
        warm_fresh = PlanExecutor(
            store, seed=SEED, backend=backend, cache=cache
        )
        warm_fresh.execute(plan_queries(store, [f_mi]), trace=sink)
        return
    schedule = SampleSchedule(store.num_rows, INITIAL_SAMPLE)
    common = {"seed": SEED, "schedule": schedule, "trace": sink, "backend": backend}
    if case == "topk_entropy":
        swope_top_k_entropy(store, 2, **common)
    elif case == "filter_entropy":
        swope_filter_entropy(store, 2.0, **common)
    elif case == "topk_mi":
        # At the MI default ε = 0.5 no rule of this query can fire below
        # N = 2000 rows, so it would evaluate only there (its decision
        # floor); at ε = 0.9 the stop rule can fire from 1024 rows on.
        swope_top_k_mutual_information(store, "target", 2, epsilon=0.9, **common)
    elif case == "filter_mi":
        swope_filter_mutual_information(store, "target", 0.5, **common)
    else:  # pragma: no cover - parametrisation covers all cases
        raise AssertionError(f"unknown golden case {case!r}")


def _trace_lines(
    case: str,
    backend: str | CountingBackend | None = None,
    store: ColumnSource | None = None,
) -> list[str]:
    buffer = io.StringIO()
    sink = JsonlSink(buffer)
    _run_case(case, sink, backend, store)
    sink.close()
    return buffer.getvalue().splitlines()


CASES = [
    "topk_entropy",
    "filter_entropy",
    "topk_mi",
    "filter_mi",
    "plan_mixed",
    "plan_cached",
]


@pytest.mark.parametrize("case", CASES)
def test_trace_matches_golden(case: str, update_golden: bool) -> None:
    lines = _trace_lines(case)
    path = GOLDEN_DIR / f"{case}.jsonl"
    if update_golden:
        path.parent.mkdir(exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
        return
    assert path.exists(), (
        f"golden file {path} missing; generate with --update-golden"
    )
    _assert_matches_golden(case, lines)


def _assert_matches_golden(case: str, lines: list[str]) -> None:
    path = GOLDEN_DIR / f"{case}.jsonl"
    golden = path.read_text().splitlines()
    header = json.loads(golden[0])
    assert header["event"] == "header"
    # Non-header lines must match byte for byte.
    assert lines[1:] == golden[1:], (
        f"trace for {case} drifted from {path}; if the change is"
        " intentional, regenerate with --update-golden"
    )


@pytest.mark.parametrize("case", CASES)
def test_mmap_trace_matches_golden(case: str, tmp_path) -> None:
    # An mmap copy is written in the layout the memory store samples in
    # under the same layout seed: every event must be unchanged.
    store = MmapStore.from_column_store(_golden_store(), tmp_path / "store")
    _assert_matches_golden(case, _trace_lines(case, store=store))


@pytest.mark.parametrize("case", CASES)
def test_floor_drops_only_iterations_below_it(case: str, monkeypatch) -> None:
    # With the decision floor off, every MI query steps through each
    # schedule size. Dropping the iteration events below each query's
    # floor must give the golden byte for byte: the floor changes no
    # bound, decision, cell count or stat, only the evaluations it skips.
    floors: dict[tuple, int] = {}
    decide = plan_module.mi_decision_floor

    def recording(sizes, *args, **kwargs):
        floor = decide(sizes, *args, **kwargs)
        floors[(tuple(sizes), kwargs["k"], kwargs["threshold"])] = floor
        return floor

    monkeypatch.setattr(plan_module, "mi_decision_floor", recording)
    _assert_matches_golden(case, _trace_lines(case))
    monkeypatch.setattr(plan_module, "_SKIP_TO_DECISION_FLOOR", False)
    kept: list[str] = []
    dropped = 0
    floor = 0
    for line in _trace_lines(case):
        event = json.loads(line)
        if event["event"] == "query_start":
            floor = (
                floors[(tuple(event["schedule"]), event["k"], event["threshold"])]
                if event["score"] == "mutual_information"
                else 0
            )
        if event["event"] == "iteration" and event["index"] < floor:
            dropped += 1
            continue
        kept.append(line)
    _assert_matches_golden(case, kept)
    if case in ("topk_mi", "filter_mi", "plan_cached"):
        assert dropped > 0


@pytest.mark.parametrize("case", CASES)
def test_trace_byte_identical_across_runs(case: str) -> None:
    assert _trace_lines(case) == _trace_lines(case)


@pytest.mark.parametrize("case", CASES)
def test_trace_identical_across_backends(case: str, sharded_backend) -> None:
    # The event stream contains only counted quantities, so a backend
    # that returns the same counts must produce the same stream.
    assert _trace_lines(case) == _trace_lines(case, sharded_backend)


def test_schema_version_matches_goldens() -> None:
    paths = sorted(GOLDEN_DIR.glob("*.jsonl"))
    assert paths, f"no golden traces under {GOLDEN_DIR}"
    for path in paths:
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"event": "header", "schema_version": TRACE_SCHEMA_VERSION}, (
            f"{path.name} was generated for schema"
            f" {header.get('schema_version')}; current is"
            f" {TRACE_SCHEMA_VERSION} — regenerate with --update-golden"
        )


def test_goldens_have_multi_iteration_traces() -> None:
    # The schedule is chosen so every golden exercises the adaptive loop;
    # a one-iteration trace would regression-test almost nothing.
    for path in sorted(GOLDEN_DIR.glob("*.jsonl")):
        kinds = [json.loads(line)["event"] for line in path.read_text().splitlines()]
        assert kinds[0] == "header"
        if path.name.startswith("plan_"):
            assert kinds[1] == "plan_start"
            assert kinds[-1] == "plan_end"
            assert kinds.count("query_retired") >= 2, f"{path.name}: {kinds}"
        else:
            assert kinds[1] == "query_start"
            assert kinds[-1] == "query_end"
        assert kinds.count("iteration") >= 2, f"{path.name}: {kinds}"
