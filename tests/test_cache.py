"""Tests for the persistent cross-plan cache (``repro.cache``).

Covers the three layers the ISSUE's bit-identity gate cares about:

* the on-disk partition format — roundtrip, plus every degradation path
  (corruption, schema skew, checksum mismatch, foreign partition) must
  fall back to an *empty* partition, never an error;
* executor integration — a cache-warm run produces byte-identical
  answers to the cold run at zero scanned cells, counter blocks
  warm-start fresh queries, and metrics reconcile against RunStats;
* semantic reuse — dominated requests (``k′ <= k``, ``η′ >= η``) are
  served from a stored history bit-identically to a fresh run.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cache import (
    CACHE_FORMAT,
    CACHE_SCHEMA_VERSION,
    CachePartition,
    PlanCache,
    partition_filename,
)
from repro.core.plan import PlanExecutor, QuerySpec, plan_queries
from repro.core.results import GuaranteeStatus
from repro.durability.checkpoint import result_to_payload
from repro.exceptions import ParameterError
from repro.obs.metrics import MetricsRegistry
from repro.data.column_store import ColumnStore

SEED = 11


def _store() -> ColumnStore:
    rng = np.random.default_rng(42)
    n = 600
    target = rng.integers(0, 5, n)
    keep = rng.random(n) < 0.7
    return ColumnStore(
        {
            "wide": rng.integers(0, 32, n),
            "medium": rng.integers(0, 8, n),
            "narrow": rng.integers(0, 3, n),
            "target": target,
            "noisy": np.where(keep, target, rng.integers(0, 5, n)),
        }
    )


def _specs() -> list[QuerySpec]:
    return [
        QuerySpec(kind="top_k", score="entropy", k=2, epsilon=0.1, prune=False),
        QuerySpec(kind="filter", score="entropy", threshold=2.0, epsilon=0.1),
        QuerySpec(
            kind="top_k", score="mutual_information", k=2, epsilon=0.5,
            target="target", prune=False,
        ),
    ]


def _payloads(result) -> list[dict]:
    """Answer payloads with work accounting stripped.

    A served answer legitimately differs from the run that produced it
    in ``cells_scanned``/``cells_saved``/timings — the bit-identity gate
    is about the *answer*: attributes, estimates, bounds, guarantee.
    """
    payloads = []
    for name in result:
        payload = result_to_payload(result[name])
        payload.pop("stats")
        payloads.append(payload)
    return payloads


def _partition_path(store: ColumnStore, directory: Path, seed: int = SEED) -> Path:
    executor = PlanExecutor(store, seed=seed)
    return directory / partition_filename(
        executor._store_fingerprint(), executor._sampler.shuffle_fingerprint()
    )


# ----------------------------------------------------------------------
# Partition store: roundtrip and degradation paths
# ----------------------------------------------------------------------


def test_partition_roundtrip(tmp_path: Path) -> None:
    store = _store()
    cache = PlanCache(tmp_path)
    executor = PlanExecutor(store, seed=SEED, cache=cache)
    cold = executor.execute(plan_queries(store, _specs()))

    path = _partition_path(store, tmp_path)
    assert path.exists()
    document = json.loads(path.read_text())
    assert document["format"] == CACHE_FORMAT
    assert document["schema_version"] == CACHE_SCHEMA_VERSION

    # A fresh cache over the same directory serves every answer back.
    warm_exec = PlanExecutor(store, seed=SEED, cache=PlanCache(tmp_path))
    warm = warm_exec.execute(plan_queries(store, _specs()))
    assert _payloads(warm) == _payloads(cold)
    assert warm.stats.cells_scanned == 0


def test_in_memory_cache_flush_is_noop(tmp_path: Path) -> None:
    store = _store()
    cache = PlanCache()
    PlanExecutor(store, seed=SEED, cache=cache).execute(
        plan_queries(store, _specs()[:1])
    )
    cache.flush()  # no directory: nothing written anywhere
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "tamper",
    ["garbage", "wrong_format", "stale_schema", "bad_checksum", "foreign"],
)
def test_defective_partition_degrades_to_cold(tmp_path: Path, tamper: str) -> None:
    store = _store()
    spec = _specs()[0]
    cold_exec = PlanExecutor(store, seed=SEED, cache=PlanCache(tmp_path))
    cold = cold_exec.execute(plan_queries(store, [spec]))
    path = _partition_path(store, tmp_path)
    document = json.loads(path.read_text())

    if tamper == "garbage":
        path.write_text("{not json")
    elif tamper == "wrong_format":
        document["format"] = "something-else"
        path.write_text(json.dumps(document))
    elif tamper == "stale_schema":
        document["schema_version"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(document))
    elif tamper == "bad_checksum":
        document["payload"]["answers"] = []
        path.write_text(json.dumps(document))  # sha256 now stale
    elif tamper == "foreign":
        document["payload"]["fingerprint"] = "0" * 64
        # Re-seal so only the partition identity is wrong.
        import hashlib

        canonical = json.dumps(
            document["payload"], sort_keys=True, separators=(",", ":")
        )
        document["sha256"] = hashlib.sha256(canonical.encode()).hexdigest()
        path.write_text(json.dumps(document))

    # The defective file must behave exactly like no cache at all: the
    # run goes cold (scans cells) but still lands on the same answer.
    warm_exec = PlanExecutor(store, seed=SEED, cache=PlanCache(tmp_path))
    warm = warm_exec.execute(plan_queries(store, [spec]))
    assert warm.stats.cells_scanned > 0
    assert _payloads(warm) == _payloads(cold)


def test_partition_requires_fingerprints() -> None:
    with pytest.raises(TypeError):
        CachePartition("fp", "shuffle")  # type: ignore[misc]
    with pytest.raises(TypeError):
        PlanCache().partition("fp", "shuffle")  # type: ignore[misc]


def test_executor_rejects_cache_and_cache_dir(tmp_path: Path) -> None:
    with pytest.raises(ParameterError):
        PlanExecutor(_store(), seed=SEED, cache=PlanCache(), cache_dir=tmp_path)


# ----------------------------------------------------------------------
# Executor integration: the bit-identity gate
# ----------------------------------------------------------------------


def test_cold_warm_bit_identity(tmp_path: Path) -> None:
    store = _store()
    cold_exec = PlanExecutor(store, seed=SEED, cache_dir=tmp_path)
    cold = cold_exec.execute(plan_queries(store, _specs()))
    assert cold.stats.cells_scanned > 0

    warm_exec = PlanExecutor(store, seed=SEED, cache_dir=tmp_path)
    warm = warm_exec.execute(plan_queries(store, _specs()))
    assert warm.stats.cells_scanned == 0
    assert _payloads(warm) == _payloads(cold)


def test_counter_blocks_warm_start_new_queries(tmp_path: Path) -> None:
    store = _store()
    # Cold: a top-k entropy query counts every candidate marginal.
    cold = PlanExecutor(store, seed=SEED, cache_dir=tmp_path)
    cold.execute(
        plan_queries(
            store,
            [QuerySpec(kind="top_k", score="entropy", k=2, epsilon=0.1,
                       prune=False)],
        )
    )
    # Warm: a *different* query (never cached as an answer) over the same
    # attributes seeds its counters from the cached blocks.
    warm = PlanExecutor(store, seed=SEED, cache_dir=tmp_path)
    result = warm.execute(
        plan_queries(
            store,
            [QuerySpec(kind="filter", score="entropy", threshold=1.5,
                       epsilon=0.1)],
        )
    )
    (stats,) = [result[name].stats for name in result]
    assert stats.cells_saved > 0
    # Both paths agree with a cache-free run, byte for byte.
    bare = PlanExecutor(store, seed=SEED)
    fresh = bare.execute(
        plan_queries(
            store,
            [QuerySpec(kind="filter", score="entropy", threshold=1.5,
                       epsilon=0.1)],
        )
    )
    assert _payloads(result) == _payloads(fresh)


def test_metrics_reconcile_with_run_stats(tmp_path: Path) -> None:
    store = _store()
    PlanExecutor(store, seed=SEED, cache_dir=tmp_path).execute(
        plan_queries(store, _specs())
    )
    registry = MetricsRegistry()
    warm_exec = PlanExecutor(store, seed=SEED, cache_dir=tmp_path)
    warm = warm_exec.execute(plan_queries(store, _specs()), metrics=registry)
    assert registry.counter("cache_lookups_total").value == len(_specs())
    assert registry.counter("cache_hits_total").value == len(_specs())
    assert registry.counter("cache_misses_total").value == 0
    saved = sum(warm[name].stats.cells_saved for name in warm)
    assert registry.counter("cache_cells_saved_total").value == saved
    assert saved > 0


def test_cold_run_records_misses(tmp_path: Path) -> None:
    store = _store()
    registry = MetricsRegistry()
    PlanExecutor(store, seed=SEED, cache_dir=tmp_path).execute(
        plan_queries(store, _specs()), metrics=registry
    )
    assert registry.counter("cache_lookups_total").value == len(_specs())
    assert registry.counter("cache_misses_total").value == len(_specs())
    assert registry.counter("cache_hits_total").value == 0


# ----------------------------------------------------------------------
# Flush cadence: once per plan, once per standalone query
# ----------------------------------------------------------------------
def _count_writes(monkeypatch, path: Path) -> list[bytes]:
    """Every atomic write to ``path`` from now on, in order."""
    from repro.durability import atomic

    writes: list[bytes] = []
    original = atomic.atomic_write_bytes

    def spy(target, data):
        if Path(target) == path:
            writes.append(data)
        return original(target, data)

    monkeypatch.setattr(atomic, "atomic_write_bytes", spy)
    return writes


def _file_counters(path: Path) -> dict:
    from repro.durability.checkpoint import decode_counters, read_envelope

    return decode_counters(
        read_envelope(
            path, marker=CACHE_FORMAT, schema_version=CACHE_SCHEMA_VERSION
        )
    )


def test_execute_writes_the_partition_once_per_plan(
    tmp_path: Path, monkeypatch
) -> None:
    store = _store()
    path = _partition_path(store, tmp_path)
    writes = _count_writes(monkeypatch, path)
    executor = PlanExecutor(
        store, seed=SEED, cache_dir=tmp_path, checkpoint_path=tmp_path / "p.ckpt"
    )
    executor.execute(plan_queries(store, _specs()))
    assert len(writes) == 1
    # the one write holds every answer and the sampler's final counters
    partition = PlanCache(tmp_path).partition(
        fingerprint=executor._store_fingerprint(),
        shuffle=executor.sampler.shuffle_fingerprint(),
    )
    assert len(partition.to_payload()["answers"]) == len(_specs())
    live = executor.sampler.state_snapshot()
    assert {
        name: entry["counted"]
        for name, entry in _file_counters(path)["marginals"].items()
    } == {name: entry["counted"] for name, entry in live["marginals"].items()}
    # a warm rerun served every answer adds nothing, so it writes nothing
    warm = PlanExecutor(store, seed=SEED, cache_dir=tmp_path)
    assert warm.execute(plan_queries(store, _specs())).stats.cells_scanned == 0
    assert len(writes) == 1


def test_strict_truncated_plan_keeps_its_partial_counters(
    tmp_path: Path,
) -> None:
    from repro.core.budget import QueryBudget
    from repro.exceptions import QueryInterruptedError

    store = _store()
    executor = PlanExecutor(store, seed=SEED, cache_dir=tmp_path)
    with pytest.raises(QueryInterruptedError):
        executor.execute(
            plan_queries(store, _specs()),
            budget=QueryBudget(max_cells=400),
            strict=True,
        )
    assert executor.cells_scanned > 0
    counters = _file_counters(_partition_path(store, tmp_path))
    live = executor.sampler.state_snapshot()
    assert counters["marginals"].keys() == live["marginals"].keys()
    for name, entry in live["marginals"].items():
        assert counters["marginals"][name]["counted"] == entry["counted"]
        np.testing.assert_array_equal(
            counters["marginals"][name]["counts"], entry["counts"]
        )


def test_standalone_execute_one_flushes_per_call(
    tmp_path: Path, monkeypatch
) -> None:
    store = _store()
    writes = _count_writes(monkeypatch, _partition_path(store, tmp_path))
    executor = PlanExecutor(store, seed=SEED, cache_dir=tmp_path)
    for count, spec in enumerate(_specs(), start=1):
        executor.execute_one(spec)
        assert len(writes) == count
    executor.top_k_entropy(1, epsilon=0.1)
    assert len(writes) == len(_specs()) + 1


def test_interrupt_skips_the_flush(tmp_path: Path) -> None:
    class Interrupting:
        @property
        def cancelled(self) -> bool:
            raise KeyboardInterrupt

    store = _store()
    executor = PlanExecutor(store, seed=SEED, cache_dir=tmp_path)
    with pytest.raises(KeyboardInterrupt):
        executor.execute(plan_queries(store, _specs()), cancellation=Interrupting())
    assert executor.cells_scanned > 0
    assert not _partition_path(store, tmp_path).exists()


def _failing_flush(self) -> None:
    raise OSError("disk full")


def test_flush_error_never_masks_the_plan_error(
    tmp_path: Path, monkeypatch
) -> None:
    from repro.testing.chaos import (
        BoundaryFaultToken,
        ChaosPlan,
        SimulatedKillError,
    )

    store = _store()
    monkeypatch.setattr(PlanCache, "flush", _failing_flush)

    def executor() -> PlanExecutor:
        return PlanExecutor(store, seed=SEED, cache_dir=tmp_path)

    with pytest.raises(SimulatedKillError) as killed_plan:
        executor().execute(
            plan_queries(store, _specs()),
            cancellation=BoundaryFaultToken(ChaosPlan.kill_at(2)),
        )
    with pytest.raises(SimulatedKillError) as killed_query:
        executor().execute_one(
            _specs()[0], cancellation=BoundaryFaultToken(ChaosPlan.kill_at(0))
        )
    for excinfo in (killed_plan, killed_query):
        assert any("disk full" in note for note in excinfo.value.__notes__)
    # with nothing else going wrong, the flush error is the error
    with pytest.raises(OSError, match="disk full"):
        executor().execute(plan_queries(store, _specs()))
    with pytest.raises(OSError, match="disk full"):
        executor().execute_one(_specs()[0])


# ----------------------------------------------------------------------
# Semantic reuse
# ----------------------------------------------------------------------


def test_semantic_topk_smaller_k_served_bit_identical(tmp_path: Path) -> None:
    store = _store()
    tk3 = QuerySpec(kind="top_k", score="entropy", k=3, epsilon=0.1, prune=False)
    tk1 = QuerySpec(kind="top_k", score="entropy", k=1, epsilon=0.1, prune=False)
    PlanExecutor(store, seed=SEED, cache_dir=tmp_path).execute(
        plan_queries(store, [tk3])
    )
    registry = MetricsRegistry()
    served_exec = PlanExecutor(store, seed=SEED, cache_dir=tmp_path)
    served = served_exec.execute(plan_queries(store, [tk1]), metrics=registry)
    assert served.stats.cells_scanned == 0
    assert registry.counter("cache_answers_reused_total").value == 1

    fresh = PlanExecutor(store, seed=SEED).execute(plan_queries(store, [tk1]))
    assert _payloads(served) == _payloads(fresh)


def test_semantic_filter_higher_threshold_served(tmp_path: Path) -> None:
    store = _store()
    # η = 5.2 sits above every attribute's entropy, so the stored run
    # excludes everything — and exclusion against η decides exclusion
    # against any η′ > η at the same recorded iteration, so the replay
    # serves the weaker η′ = 6.0 without touching data.
    f_lo = QuerySpec(kind="filter", score="entropy", threshold=5.2, epsilon=0.1)
    f_hi = QuerySpec(kind="filter", score="entropy", threshold=6.0, epsilon=0.1)
    PlanExecutor(store, seed=SEED, cache_dir=tmp_path).execute(
        plan_queries(store, [f_lo])
    )
    served_exec = PlanExecutor(store, seed=SEED, cache_dir=tmp_path)
    served = served_exec.execute(plan_queries(store, [f_hi]))
    assert served.stats.cells_scanned == 0

    fresh = PlanExecutor(store, seed=SEED).execute(plan_queries(store, [f_hi]))
    assert _payloads(served) == _payloads(fresh)


def test_semantic_refusal_falls_back_bit_identical(tmp_path: Path) -> None:
    store = _store()
    # A stored η = 2.0 run stops as soon as the η-decisions land; the
    # tighter-margin η′ = 2.2 usually needs bounds the history never
    # recorded. Whether the replay serves or refuses, the answer must
    # equal a fresh run's, byte for byte.
    f_lo = QuerySpec(kind="filter", score="entropy", threshold=2.0, epsilon=0.1)
    f_hi = QuerySpec(kind="filter", score="entropy", threshold=2.2, epsilon=0.1)
    PlanExecutor(store, seed=SEED, cache_dir=tmp_path).execute(
        plan_queries(store, [f_lo])
    )
    served_exec = PlanExecutor(store, seed=SEED, cache_dir=tmp_path)
    served = served_exec.execute(plan_queries(store, [f_hi]))
    fresh = PlanExecutor(store, seed=SEED).execute(plan_queries(store, [f_hi]))
    assert _payloads(served) == _payloads(fresh)


def test_put_answer_refuses_nonconverged() -> None:
    store = _store()
    part = CachePartition(fingerprint="f" * 64, shuffle="s" * 64)
    fresh = PlanExecutor(store, seed=SEED).execute(
        plan_queries(store, _specs()[:1])
    )
    (result,) = [fresh[name] for name in fresh]
    degraded = type(result)(
        attributes=result.attributes,
        estimates=result.estimates,
        stats=result.stats,
        k=result.k,
        target=result.target,
        guarantee=GuaranteeStatus(
            guarantee_met=False,
            stopping_reason="cell_budget",
            requested_epsilon=0.1,
            achieved_epsilon=0.4,
        ),
    )
    history = ((64, {"wide": (1.0, 2.0, 1.0, 1.5)}),)
    kwargs = dict(
        kind="top_k", score="entropy", epsilon=0.1,
        failure_probability=1 / store.num_rows, schedule_start=64,
        candidates=("wide",), target=None, prune=False, param=2.0,
    )
    part.put_answer(history=history, result=degraded, **kwargs)
    assert part._answers == []
    part.put_answer(history=(), result=result, **kwargs)
    assert part._answers == []  # empty history is unusable for replay
    part.put_answer(history=history, result=result, **kwargs)
    assert len(part._answers) == 1
    assert part.dirty
