"""Tests for repro.durability: atomic writes and the checkpoint format.

The layers:

* atomic write-rename — the destination either holds the old bytes or
  the complete new bytes, never a torn mix; ``AtomicTextFile`` only
  publishes on a clean close;
* checkpoint envelope — save/load round-trips every section; the loader
  refuses a wrong format marker, a future schema version
  (``CheckpointMismatchError``), a tampered or truncated payload
  (``CheckpointError``), and a checkpoint written for different data
  (dataset-fingerprint mismatch);
* sampler state — ``PrefixSampler.state_snapshot``/``from_state``
  reproduce the permutation, the prefix position, and every marginal
  and joint counter exactly;
* the write sequence — every checkpoint a plan writes is the canonical
  serialization of its envelope and holds the live counters of its
  boundary, although a counter is encoded only when its prefix grows;
* the shuffle recipe — checkpoints name the shuffle by its bit
  generator and state, so resume is bit-identical for every seed form
  and bit generator, a recipe that redraws a different permutation is
  refused (and recovery restarts fresh), and the shuffle's payload does
  not grow with the row count;
* the resume property — snapshot → restore → continue equals the
  uninterrupted run bit-for-bit (hypothesis sweeps store shapes and
  snapshot points).
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.plan import PlanExecutor, QuerySpec, plan_queries
from repro.durability import execute_plan_with_recovery
from repro.data.column_store import ColumnStore
from repro.data.sampling import PrefixSampler
from repro.durability.atomic import (
    AtomicTextFile,
    atomic_write_bytes,
    atomic_write_text,
)
from repro.durability.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_SCHEMA_VERSION,
    decode_sampler_state,
    encode_counters,
    encode_sampler_state,
    load_checkpoint,
    save_checkpoint,
    store_fingerprint,
)
from repro.exceptions import (
    CheckpointError,
    CheckpointMismatchError,
    ParameterError,
)
from repro.testing.chaos import (
    BoundaryFaultToken,
    ChaosPlan,
    SimulatedKillError,
    plan_fingerprint,
    truncate_file,
)

SEED = 7


@pytest.fixture()
def store(rng: np.random.Generator) -> ColumnStore:
    n = 1200
    target = rng.integers(0, 5, n)
    return ColumnStore(
        {
            "wide": rng.integers(0, 32, n),
            "narrow": rng.integers(0, 3, n),
            "target": target,
            "noisy": np.where(rng.random(n) < 0.6, target, rng.integers(0, 5, n)),
        }
    )


def _specs() -> list[QuerySpec]:
    return [
        QuerySpec(kind="top_k", score="entropy", k=2),
        QuerySpec(
            kind="top_k", score="mutual_information", k=1, target="target"
        ),
    ]


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------
class TestAtomicWrites:
    def test_write_text_creates_and_replaces(self, tmp_path):
        path = tmp_path / "artifact.txt"
        atomic_write_text(path, "first")
        assert path.read_text() == "first"
        atomic_write_text(path, "second")
        assert path.read_text() == "second"
        # no temp siblings survive a successful write
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.txt"]

    def test_write_bytes_round_trip(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomic_write_bytes(path, b"\x00\xff" * 10)
        assert path.read_bytes() == b"\x00\xff" * 10

    def test_streaming_file_publishes_only_on_close(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        out = AtomicTextFile(path)
        out.write("line 1\n")
        assert not path.exists()  # nothing published mid-stream
        out.close()
        assert path.read_text() == "line 1\n"

    def test_streaming_file_abort_leaves_previous_content(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        atomic_write_text(path, "previous\n")
        with pytest.raises(RuntimeError):
            with AtomicTextFile(path) as out:
                out.write("half-written garbage")
                raise RuntimeError("crash mid-write")
        assert path.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["stream.jsonl"]


# ----------------------------------------------------------------------
# Dataset fingerprints
# ----------------------------------------------------------------------
class TestStoreFingerprint:
    def test_deterministic(self, store):
        assert store_fingerprint(store) == store_fingerprint(store)

    def test_sensitive_to_values(self, rng):
        a = ColumnStore({"x": np.array([0, 1, 2, 1])})
        b = ColumnStore({"x": np.array([0, 1, 2, 2])})
        assert store_fingerprint(a) != store_fingerprint(b)

    def test_sensitive_to_names_and_shape(self):
        a = ColumnStore({"x": np.array([0, 1, 2])})
        b = ColumnStore({"y": np.array([0, 1, 2])})
        c = ColumnStore({"x": np.array([0, 1, 2, 0])})
        assert len({store_fingerprint(s) for s in (a, b, c)}) == 3


# ----------------------------------------------------------------------
# Checkpoint envelope verification
# ----------------------------------------------------------------------
def _write_checkpoint(store, tmp_path, **executor_kwargs):
    path = tmp_path / "plan.ckpt"
    executor = PlanExecutor(
        store, seed=SEED, checkpoint_path=path, **executor_kwargs
    )
    result = executor.execute(plan_queries(store, _specs()))
    return path, result


class TestCheckpointEnvelope:
    def test_round_trip_and_store_verification(self, store, tmp_path):
        path, _ = _write_checkpoint(store, tmp_path)
        snapshot = load_checkpoint(path, store=store)
        assert snapshot.schema_version == CHECKPOINT_SCHEMA_VERSION
        assert snapshot.dataset["fingerprint"] == store_fingerprint(store)
        assert [spec["kind"] for spec in snapshot.specs] == ["top_k", "top_k"]
        assert snapshot.progress["in_flight"] is None  # plan completed

    def test_save_returns_bytes_written(self, store, tmp_path):
        path, _ = _write_checkpoint(store, tmp_path)
        snapshot = load_checkpoint(path)
        n = save_checkpoint(snapshot, tmp_path / "copy.ckpt")
        assert n == (tmp_path / "copy.ckpt").stat().st_size > 0

    def test_refuses_future_schema_version(self, store, tmp_path):
        path, _ = _write_checkpoint(store, tmp_path)
        envelope = json.loads(path.read_text())
        envelope["schema_version"] = CHECKPOINT_SCHEMA_VERSION + 1
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointMismatchError, match="schema"):
            load_checkpoint(path)

    def test_refuses_wrong_format_marker(self, store, tmp_path):
        path, _ = _write_checkpoint(store, tmp_path)
        envelope = json.loads(path.read_text())
        envelope["format"] = "something-else"
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match=CHECKPOINT_FORMAT):
            load_checkpoint(path)

    def test_refuses_tampered_payload(self, store, tmp_path):
        path, _ = _write_checkpoint(store, tmp_path)
        envelope = json.loads(path.read_text())
        envelope["payload"]["executor"]["sample_floor"] += 1
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="sha256"):
            load_checkpoint(path)

    def test_refuses_truncated_file(self, store, tmp_path):
        path, _ = _write_checkpoint(store, tmp_path)
        truncate_file(path, path.stat().st_size // 2)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_refuses_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_refuses_different_dataset(self, store, rng, tmp_path):
        path, _ = _write_checkpoint(store, tmp_path)
        other = ColumnStore(
            {name: store.column(name).copy() for name in store.attributes[:2]}
        )
        with pytest.raises(CheckpointMismatchError, match="fingerprint"):
            load_checkpoint(path, store=other)
        with pytest.raises(CheckpointMismatchError):
            PlanExecutor.resume(path, other)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("per_query_cells", [1, 2]),  # AttributeError while decoding
            ("plan", None),  # TypeError
            ("plan_cells_at_start", "many"),  # ValueError
        ],
    )
    def test_resume_refuses_malformed_progress(self, store, tmp_path, key, value):
        path, _ = _write_checkpoint(store, tmp_path)
        snapshot = load_checkpoint(path)
        snapshot.progress[key] = value
        save_checkpoint(snapshot, path)  # re-sealed: passes the sha256 check
        with pytest.raises(CheckpointError, match="malformed"):
            PlanExecutor.resume(path, store)

    def test_resume_requires_same_plan(self, store, tmp_path):
        path, _ = _write_checkpoint(store, tmp_path)
        executor = PlanExecutor.resume(path, store)
        other_plan = plan_queries(
            store, [QuerySpec(kind="top_k", score="entropy", k=1)]
        )
        with pytest.raises(CheckpointMismatchError, match="different plan"):
            executor.execute(other_plan)

    def test_resumed_plan_only_before_execute(self, store, tmp_path):
        path, _ = _write_checkpoint(store, tmp_path)
        executor = PlanExecutor.resume(path, store)
        plan = executor.resumed_plan()
        executor.execute(plan)
        with pytest.raises(ParameterError, match="resumed_plan"):
            executor.resumed_plan()


# ----------------------------------------------------------------------
# Sampler state snapshots
# ----------------------------------------------------------------------
class TestSamplerState:
    def test_snapshot_restores_counters_and_position(self, store):
        sampler = PrefixSampler(store, seed=SEED)
        sampler.marginal_counts("wide", 300)
        sampler.marginal_counts("narrow", 300)
        sampler.joint_counts("target", "noisy", 300)
        state = decode_sampler_state(encode_sampler_state(sampler.state_snapshot()))
        clone = PrefixSampler.from_state(store, state)
        assert clone.cells_scanned == sampler.cells_scanned
        for name in ("wide", "narrow"):
            np.testing.assert_array_equal(
                clone.marginal_counts(name, 300),
                sampler.marginal_counts(name, 300),
            )
        assert (
            clone.joint_counts("target", "noisy", 300).total
            == sampler.joint_counts("target", "noisy", 300).total
        )

    def test_restored_sampler_continues_identically(self, store):
        reference = PrefixSampler(store, seed=SEED)
        snapshotted = PrefixSampler(store, seed=SEED)
        for sampler in (reference, snapshotted):
            for name in store.attributes:
                sampler.marginal_counts(name, 200)
        state = decode_sampler_state(
            encode_sampler_state(snapshotted.state_snapshot())
        )
        restored = PrefixSampler.from_state(store, state)
        # grow both to a deeper prefix and compare every counter
        for name in store.attributes:
            np.testing.assert_array_equal(
                restored.marginal_counts(name, 900),
                reference.marginal_counts(name, 900),
            )
        assert restored.cells_scanned == reference.cells_scanned


# ----------------------------------------------------------------------
# The write sequence of a checkpointed plan
# ----------------------------------------------------------------------
def _assert_counters_equal(decoded, live) -> None:
    """Decoded counters equal live ones: prefixes, forms and counts."""
    assert decoded["marginals"].keys() == live["marginals"].keys()
    for name, entry in live["marginals"].items():
        assert decoded["marginals"][name]["counted"] == entry["counted"]
        np.testing.assert_array_equal(
            decoded["marginals"][name]["counts"], entry["counts"]
        )
    assert len(decoded["joints"]) == len(live["joints"])
    for got, want in zip(decoded["joints"], live["joints"]):
        for key in ("first", "second", "counted"):
            assert got[key] == want[key]
        assert got["counter"].keys() == want["counter"].keys()
        for key, value in want["counter"].items():
            np.testing.assert_array_equal(got["counter"][key], value)


class TestWriteSequence:
    """Every checkpoint a plan writes is the canonical envelope of the
    live state at that boundary, although each counter is encoded only
    when its prefix grows."""

    @staticmethod
    def _store() -> ColumnStore:
        rng = np.random.default_rng(31)
        n = 3000
        target = rng.integers(0, 5, n)
        return ColumnStore(
            {
                # 1200 x 1000 codes: the ("wide", "wider") joint is sparse
                "wide": rng.permutation(np.arange(n) % 1200),
                "wider": rng.permutation(np.arange(n) % 1000),
                "narrow": rng.integers(0, 3, n),
                "target": target,
                "noisy": np.where(
                    rng.random(n) < 0.6, target, rng.integers(0, 5, n)
                ),
            }
        )

    def test_memo_encodes_a_counter_once_per_prefix(self, store):
        sampler = PrefixSampler(store, seed=SEED)
        sampler.marginal_counts("wide", 300)
        sampler.marginal_counts("narrow", 300)
        sampler.joint_counts("target", "noisy", 300)
        memo = {}
        first = encode_counters(sampler.state_snapshot(), memo)
        sampler.marginal_counts("wide", 600)
        second = encode_counters(sampler.state_snapshot(), memo)
        assert second["marginals"]["narrow"] is first["marginals"]["narrow"]
        assert second["joints"][0] is first["joints"][0]
        assert second["marginals"]["wide"]["counted"] == 600
        assert second == encode_counters(sampler.state_snapshot())
        assert len(memo) == 3

    def test_each_save_seals_the_live_state(self, tmp_path, monkeypatch):
        from repro.durability import atomic

        store = self._store()
        specs = [
            # pruning leaves counters behind the frontier between saves
            QuerySpec(kind="top_k", score="entropy", k=1, epsilon=0.05, prune=True),
            QuerySpec(kind="filter", score="entropy", threshold=2.5, epsilon=0.05),
            QuerySpec(
                kind="top_k", score="mutual_information", k=1, epsilon=0.3,
                target="wider", attributes=("wide", "narrow", "noisy"),
                prune=True,
            ),
            QuerySpec(
                kind="filter", score="mutual_information", threshold=0.3,
                epsilon=0.3, target="target", attributes=("noisy", "narrow"),
            ),
        ]
        path = tmp_path / "plan.ckpt"
        executor = PlanExecutor(store, seed=SEED, checkpoint_path=path)
        writes = []
        original = atomic.atomic_write_bytes

        def spy(target, data):
            if target == path:
                # snapshot arrays are live: copy them before they grow
                live = copy.deepcopy(executor.sampler.state_snapshot())
                writes.append((data, live))
            return original(target, data)

        monkeypatch.setattr(atomic, "atomic_write_bytes", spy)
        executor.execute(plan_queries(store, specs))

        assert len(writes) > 8
        counted = set()
        sparse = False
        for data, live in writes:
            text = data.decode("utf-8")
            envelope = json.loads(text)
            assert text == json.dumps(
                envelope, sort_keys=True, separators=(",", ":")
            )
            decoded = decode_sampler_state(envelope["payload"]["sampler"])
            _assert_counters_equal(decoded, live)
            assert decoded["cells_scanned"] == live["cells_scanned"]
            counted.add(
                tuple(e["counted"] for e in live["marginals"].values())
            )
            sparse = sparse or any(
                "sparse_codes" in e["counter"] for e in live["joints"]
            )
        # the sequence really grows counters unevenly and holds a sparse joint
        assert len(counted) > 3
        assert any(len(set(prefixes)) > 1 for prefixes in counted)
        assert sparse
        # the last save is what loads back
        _assert_counters_equal(
            decode_sampler_state(load_checkpoint(path, store=store).sampler),
            writes[-1][1],
        )


# ----------------------------------------------------------------------
# The shuffle recipe
# ----------------------------------------------------------------------
# Seed forms a sampler accepts, as factories (a Generator is consumed by
# the shuffle, so every run needs a fresh one). The last four bit
# generators keep ndarrays in their state.
SEED_FACTORIES = {
    "int": lambda: 5,
    "none": lambda: None,
    "default_rng": lambda: np.random.default_rng(9),
    "mt19937": lambda: np.random.Generator(np.random.MT19937(3)),
    "philox": lambda: np.random.Generator(np.random.Philox(2)),
    "sfc64": lambda: np.random.Generator(np.random.SFC64(1)),
    "pcg64dxsm": lambda: np.random.Generator(np.random.PCG64DXSM(4)),
}


def _kill_and_checkpoint(store, path, seed, kill_at=3):
    """Run the two-query plan until a simulated kill; return its sampler."""
    executor = PlanExecutor(store, seed=seed, checkpoint_path=path)
    with pytest.raises(SimulatedKillError):
        executor.execute(
            plan_queries(store, _specs()),
            cancellation=BoundaryFaultToken(ChaosPlan.kill_at(kill_at)),
        )
    return executor._sampler


def _rewrite_sampler(path, edit) -> None:
    """Apply ``edit`` to the saved sampler section and re-seal the envelope.

    ``save_checkpoint`` recomputes the envelope sha256, so the edit passes
    the integrity check and only the shuffle verification can catch it.
    """
    snapshot = load_checkpoint(path)
    edit(snapshot.sampler)
    save_checkpoint(snapshot, path)


class TestShuffleRecipe:
    @pytest.mark.parametrize("seed_form", sorted(SEED_FACTORIES))
    def test_resume_is_bit_identical_for_every_seed_form(
        self, store, tmp_path, seed_form
    ):
        make_seed = SEED_FACTORIES[seed_form]
        path = tmp_path / "plan.ckpt"
        killed = _kill_and_checkpoint(store, path, make_seed())
        original = killed.shuffled_prefix(store.num_rows).copy()
        reference_executor = PlanExecutor(
            store, seed=None if seed_form == "none" else make_seed()
        )
        if seed_form == "none":
            # An OS-entropy offset has no independent replay: start the
            # uninterrupted run at the recorded offset.
            reference_executor.sampler._offset = killed.state_snapshot()[
                "shuffle"
            ]["offset"]
        reference = plan_fingerprint(
            reference_executor.execute(plan_queries(store, _specs()))
        )
        resumed = PlanExecutor.resume(path, store)
        np.testing.assert_array_equal(
            resumed._sampler.shuffled_prefix(store.num_rows), original
        )
        outcome = resumed.execute(resumed.resumed_plan())
        assert plan_fingerprint(outcome) == reference

    @pytest.mark.parametrize(
        "edit",
        [
            lambda sampler: sampler["shuffle"].update(layout="0" * 64),
            lambda sampler: sampler["shuffle"].update(
                layout_seed=sampler["shuffle"]["layout_seed"] + 1
            ),
        ],
        ids=["sha256", "layout_seed"],
    )
    def test_redraw_mismatch_is_refused_and_recovery_restarts(
        self, store, tmp_path, edit
    ):
        path = tmp_path / "plan.ckpt"
        _kill_and_checkpoint(store, path, SEED)
        _rewrite_sampler(path, edit)
        load_checkpoint(path, store=store)  # the envelope itself verifies
        with pytest.raises(CheckpointMismatchError, match="resume"):
            PlanExecutor.resume(path, store)
        reference = plan_fingerprint(
            PlanExecutor(store, seed=SEED).execute(plan_queries(store, _specs()))
        )
        outcome = execute_plan_with_recovery(
            store, _specs(), checkpoint_path=path, seed=SEED
        )
        assert plan_fingerprint(outcome) == reference
        # the fresh run's snapshots replaced the refused checkpoint
        PlanExecutor.resume(path, store)

    def test_checkpoint_size_does_not_grow_with_rows(self, tmp_path):
        def store_of(n: int) -> ColumnStore:
            data_rng = np.random.default_rng(0)
            return ColumnStore(
                {
                    "a": data_rng.integers(0, 8, n),
                    "b": data_rng.integers(0, 3, n),
                    "c": data_rng.integers(0, 5, n),
                }
            )

        def shuffle_bytes(store: ColumnStore) -> int:
            encoded = encode_sampler_state(
                PrefixSampler(store, seed=5).state_snapshot()
            )
            # the offset is a number below N: its digits may differ
            return len(json.dumps({**encoded["shuffle"], "offset": 0}))

        large = store_of(200_000)
        assert shuffle_bytes(store_of(20_000)) == shuffle_bytes(large)
        path = tmp_path / "large.ckpt"
        PlanExecutor(large, seed=5, checkpoint_path=path).execute(
            plan_queries(large, [QuerySpec(kind="top_k", score="entropy", k=1)])
        )
        assert path.stat().st_size < 64 * 1024


# ----------------------------------------------------------------------
# The resume property (hypothesis)
# ----------------------------------------------------------------------
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    data_seed=st.integers(min_value=0, max_value=2**16),
    num_rows=st.integers(min_value=200, max_value=900),
    kill_at=st.integers(min_value=0, max_value=50),
)
def test_snapshot_restore_continue_matches_uninterrupted(
    tmp_path, data_seed, num_rows, kill_at
):
    """Kill at any boundary, resume, and the answers are bit-identical."""
    from repro.testing.chaos import (
        BoundaryFaultToken,
        ChaosPlan,
        SimulatedKillError,
    )

    data_rng = np.random.default_rng(data_seed)
    target = data_rng.integers(0, 4, num_rows)
    store = ColumnStore(
        {
            "a": data_rng.integers(0, 16, num_rows),
            "b": data_rng.integers(0, 3, num_rows),
            "target": target,
            "mirror": np.where(
                data_rng.random(num_rows) < 0.5,
                target,
                data_rng.integers(0, 4, num_rows),
            ),
        }
    )
    plan = plan_queries(store, _specs())
    reference = plan_fingerprint(PlanExecutor(store, seed=SEED).execute(plan))
    path = tmp_path / f"resume-{data_seed}-{num_rows}-{kill_at}.ckpt"
    token = BoundaryFaultToken(ChaosPlan.kill_at(kill_at))
    try:
        PlanExecutor(store, seed=SEED, checkpoint_path=path).execute(
            plan, cancellation=token
        )
        killed = False
    except SimulatedKillError:
        killed = True
    if killed:
        resumed = PlanExecutor.resume(path, store)
        outcome = resumed.execute(resumed.resumed_plan())
        assert plan_fingerprint(outcome) == reference
    # kill_at past the last boundary: the uninterrupted run must agree too
    else:
        assert (
            plan_fingerprint(PlanExecutor(store, seed=SEED).execute(plan))
            == reference
        )
