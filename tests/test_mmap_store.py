"""Tests for :mod:`repro.data.mmap_store` — the out-of-core column store.

Four layers:

* construction — chunked writer round-trips, schema validation of
  appended chunks, refusal to overwrite a finished store, and the
  crash-safety property that an interrupted build leaves no manifest;
* manifest hygiene — ``open`` rejects missing/corrupt/foreign/versioned
  manifests and stores with missing or tampered column files;
* engine interop — fingerprints byte-identical to the in-memory store
  (so checkpoints and caches transfer), ``ColumnSource`` conformance,
  and bit-identical query answers mmap vs memory;
* durability — checkpoint/resume round-trip on an mmap-backed plan,
  including across a reopen of the store directory;
* legacy width — a store written with int16 column files (the width
  before int8 storage) opens, verifies and answers exactly like its
  int8 rebuild: one fingerprint, one plan, checkpoints and cache
  partitions that cross between the two.
"""

from __future__ import annotations

import hashlib
import json
import shutil

import numpy as np
import pytest

from repro.core import swope_top_k_entropy, swope_top_k_mutual_information
from repro.core.plan import PlanExecutor, QuerySpec, plan_queries
from repro.data.column_store import ColumnSource, ColumnStore
from repro.data.mmap_store import (
    MANIFEST_NAME,
    MMAP_STORE_SCHEMA_VERSION,
    MmapStore,
    MmapStoreWriter,
)
from repro.durability.checkpoint import load_checkpoint, store_fingerprint
from repro.exceptions import (
    CheckpointMismatchError,
    ParameterError,
    SchemaError,
)
from repro.testing.chaos import (
    BoundaryFaultToken,
    ChaosPlan,
    SimulatedKillError,
    count_iteration_boundaries,
    plan_fingerprint,
)
from tests.test_cache import _payloads
from tests.test_golden_traces import _golden_store, _mixed_specs

SEED = 7


@pytest.fixture()
def memory_store(rng: np.random.Generator) -> ColumnStore:
    n = 1500
    target = rng.integers(0, 5, n)
    return ColumnStore(
        {
            "wide": rng.integers(0, 40, n),
            "narrow": rng.integers(0, 3, n),
            "target": target,
            "noisy": np.where(
                rng.random(n) < 0.6, target, rng.integers(0, 5, n)
            ),
        }
    )


@pytest.fixture()
def disk_store(memory_store, tmp_path) -> MmapStore:
    return MmapStore.from_column_store(
        memory_store, tmp_path / "store", chunk_rows=256
    )


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
class TestWriter:
    def test_chunked_build_round_trips(self, memory_store, disk_store):
        assert disk_store.num_rows == memory_store.num_rows
        assert disk_store.attributes == memory_store.attributes
        assert disk_store.support_sizes() == memory_store.support_sizes()
        assert disk_store.max_support_size() == memory_store.max_support_size()
        n = memory_store.num_rows
        for name in memory_store.attributes:
            # The files hold the rows in the layout the memory store
            # samples in under the same (default) layout seed.
            np.testing.assert_array_equal(
                np.asarray(disk_store.column(name)),
                memory_store.layout_column(name, 0, n),
            )
        assert disk_store.sampling_layout().sha256 == (
            memory_store.sampling_layout().sha256
        )

    def test_dtypes_match_in_memory_choice(self, memory_store, disk_store):
        # Same smallest signed dtype as ColumnStore: the storage width is
        # decided in one place for both engines.
        for name in memory_store.attributes:
            assert (
                disk_store.column(name).dtype
                == memory_store.column(name).dtype
            )

    def test_refuses_existing_store(self, memory_store, disk_store):
        with pytest.raises(ParameterError, match="already holds"):
            MmapStoreWriter(
                disk_store.directory, memory_store.support_sizes(), 10
            )

    def test_incomplete_build_cannot_finalize(self, tmp_path):
        writer = MmapStoreWriter(tmp_path / "partial", {"a": 4}, num_rows=100)
        writer.append({"a": np.zeros(40, dtype=np.int64)})
        with pytest.raises(ParameterError, match="incomplete"):
            writer.finalize()
        # The interrupted build is not mistaken for a store.
        assert not (tmp_path / "partial" / MANIFEST_NAME).exists()
        with pytest.raises(SchemaError, match="no manifest"):
            MmapStore.open(tmp_path / "partial")

    def test_chunk_overflow_rejected(self, tmp_path):
        writer = MmapStoreWriter(tmp_path / "s", {"a": 4}, num_rows=10)
        with pytest.raises(ParameterError, match="overflows"):
            writer.append({"a": np.zeros(11, dtype=np.int64)})

    def test_chunk_schema_mismatch_rejected(self, tmp_path):
        writer = MmapStoreWriter(tmp_path / "s", {"a": 4, "b": 2}, num_rows=10)
        with pytest.raises(SchemaError, match="missing=\\['b'\\]"):
            writer.append({"a": np.zeros(5, dtype=np.int64)})

    def test_ragged_chunk_rejected(self, tmp_path):
        writer = MmapStoreWriter(tmp_path / "s", {"a": 4, "b": 2}, num_rows=10)
        with pytest.raises(SchemaError, match="rows, expected"):
            writer.append(
                {
                    "a": np.zeros(5, dtype=np.int64),
                    "b": np.zeros(4, dtype=np.int64),
                }
            )

    def test_out_of_range_codes_rejected(self, tmp_path):
        writer = MmapStoreWriter(tmp_path / "s", {"a": 4}, num_rows=10)
        with pytest.raises(SchemaError, match="declares support size 4"):
            writer.append({"a": np.array([0, 1, 4], dtype=np.int64)})
        with pytest.raises(SchemaError, match="negative"):
            writer.append({"a": np.array([-1], dtype=np.int64)})

    def test_non_integer_chunk_rejected(self, tmp_path):
        writer = MmapStoreWriter(tmp_path / "s", {"a": 4}, num_rows=10)
        with pytest.raises(SchemaError, match="integer array"):
            writer.append({"a": np.array([0.5, 1.0])})

    def test_direct_construction_blocked(self, tmp_path):
        with pytest.raises(ParameterError, match="MmapStore.open"):
            MmapStore(tmp_path, {})


# ----------------------------------------------------------------------
# Manifest hygiene
# ----------------------------------------------------------------------
class TestOpenValidation:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(SchemaError, match="no manifest.json"):
            MmapStore.open(tmp_path / "nope")

    def test_corrupt_manifest(self, tmp_path):
        root = tmp_path / "bad"
        root.mkdir()
        (root / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(SchemaError, match="corrupt manifest"):
            MmapStore.open(root)

    def test_foreign_manifest(self, tmp_path):
        root = tmp_path / "foreign"
        root.mkdir()
        (root / MANIFEST_NAME).write_text(json.dumps({"format": "other"}))
        with pytest.raises(SchemaError, match="not a repro-mmap-store"):
            MmapStore.open(root)

    def test_future_schema_version_refused(self, disk_store):
        manifest_path = disk_store.directory / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["schema_version"] = MMAP_STORE_SCHEMA_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match="not supported"):
            MmapStore.open(disk_store.directory)

    def test_missing_column_file_refused(self, disk_store):
        (disk_store.directory / "col_00000.npy").unlink()
        with pytest.raises(SchemaError, match="missing column file"):
            MmapStore.open(disk_store.directory)

    def test_verify_fingerprint_detects_tampering(self, disk_store):
        assert disk_store.verify_fingerprint() == disk_store.fingerprint()
        path = disk_store.directory / "col_00000.npy"
        data = np.load(path)
        data[0] = (data[0] + 1) % 2  # stay in range, change the bytes
        np.save(path, data)
        reopened = MmapStore.open(disk_store.directory)
        with pytest.raises(SchemaError, match="fails verification"):
            reopened.verify_fingerprint()


    def test_build_order_store_is_refused_with_the_fix(self, disk_store):
        # A schema-1 store holds its rows in build order: sampling it as
        # if it were shuffled would read sorted data as a sample.
        manifest_path = disk_store.directory / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["schema_version"] = 1
        del manifest["layout"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match="rebuild the store with `repro store"):
            MmapStore.open(disk_store.directory)


class TestLayout:
    def test_builds_are_byte_identical(self, memory_store, tmp_path):
        first = MmapStore.from_column_store(memory_store, tmp_path / "a")
        second = MmapStore.from_column_store(memory_store, tmp_path / "b")
        files = sorted(path.name for path in first.directory.iterdir())
        assert files == sorted(path.name for path in second.directory.iterdir())
        for name in files:
            assert (first.directory / name).read_bytes() == (
                second.directory / name
            ).read_bytes(), name
        manifest = json.loads((first.directory / MANIFEST_NAME).read_text())
        assert manifest["layout"]["seed"] == 0
        assert manifest["layout"]["bit_generator"] == "PCG64"
        assert manifest["layout"]["sha256"] == memory_store.sampling_layout().sha256

    def test_open_and_executor_run_nothing_n_sized(self, disk_store, monkeypatch):
        from repro.data.layout import SamplingLayout

        def refuse(self):
            raise AssertionError("an N-sized permutation was drawn")

        monkeypatch.setattr(SamplingLayout, "permutation", refuse)
        store = MmapStore.open(disk_store.directory)
        executor = PlanExecutor(store, seed=SEED)
        assert executor.sampler.shuffle_fingerprint().startswith(
            store.sampling_layout().sha256
        )
        executor.execute(plan_queries(store, _specs()))

    def test_layout_seed_is_fixed_at_build(self, memory_store, tmp_path):
        disk = MmapStore.from_column_store(
            memory_store, tmp_path / "seed3", layout_seed=3
        )
        assert disk.sampling_layout().seed == disk.sampling_layout(3).seed == 3
        with pytest.raises(ParameterError, match="layout_seed=4"):
            PlanExecutor(disk, seed=SEED, layout_seed=4)
        specs = _specs()
        on_disk = PlanExecutor(disk, seed=SEED).execute(plan_queries(disk, specs))
        in_memory = PlanExecutor(memory_store, seed=SEED, layout_seed=3).execute(
            plan_queries(memory_store, specs)
        )
        assert plan_fingerprint(on_disk) == plan_fingerprint(in_memory)
        assert disk.verify_fingerprint() == memory_store.fingerprint()

    def test_checkpoint_resumes_only_on_its_layout(self, memory_store, tmp_path):
        specs = _specs()
        path = tmp_path / "memory.ckpt"
        reference = plan_fingerprint(
            PlanExecutor(memory_store, seed=SEED, layout_seed=3).execute(
                plan_queries(memory_store, specs)
            )
        )
        with pytest.raises(SimulatedKillError):
            PlanExecutor(
                memory_store, seed=SEED, layout_seed=3, checkpoint_path=path
            ).execute(
                plan_queries(memory_store, specs),
                cancellation=BoundaryFaultToken(ChaosPlan.kill_at(2)),
            )
        other = MmapStore.from_column_store(memory_store, tmp_path / "seed0")
        with pytest.raises(CheckpointMismatchError, match="layout"):
            PlanExecutor.resume(path, other)
        same = MmapStore.from_column_store(
            memory_store, tmp_path / "seed3", layout_seed=3
        )
        resumed = PlanExecutor.resume(path, same)
        outcome = resumed.execute(resumed.resumed_plan())
        assert plan_fingerprint(outcome) == reference


# ----------------------------------------------------------------------
# Engine interop
# ----------------------------------------------------------------------
class TestColumnSourceInterop:
    def test_satisfies_protocol(self, disk_store):
        assert isinstance(disk_store, ColumnSource)

    def test_fingerprint_equals_in_memory(self, memory_store, disk_store):
        assert disk_store.fingerprint() == memory_store.fingerprint()
        assert store_fingerprint(disk_store) == store_fingerprint(memory_store)

    def test_fingerprint_stable_across_reopen(self, disk_store):
        reopened = MmapStore.open(disk_store.directory)
        assert reopened.fingerprint() == disk_store.fingerprint()

    def test_column_block_matches_memory(self, memory_store, disk_store, rng):
        # Physical rows of the mmap store are layout positions.
        n = memory_store.num_rows
        rows = rng.permutation(n)[:333]
        for name in memory_store.attributes:
            laid_out = memory_store.layout_column(name, 0, n)
            np.testing.assert_array_equal(
                disk_store.column_block(name, rows), laid_out[rows]
            )
            np.testing.assert_array_equal(
                disk_store.column_block(name, slice(10, 200)), laid_out[10:200]
            )

    def test_value_counts_match_memory(self, memory_store, disk_store):
        for name in memory_store.attributes:
            np.testing.assert_array_equal(
                disk_store.value_counts(name), memory_store.value_counts(name)
            )
            np.testing.assert_array_equal(
                disk_store.value_counts(name, num_rows=500),
                np.bincount(
                    memory_store.layout_column(name, 0, 500)[:500],
                    minlength=memory_store.support_size(name),
                ),
            )

    def test_unknown_attribute_rejected(self, disk_store):
        with pytest.raises(SchemaError, match="unknown attribute"):
            disk_store.column("ghost")
        with pytest.raises(SchemaError, match="unknown attribute"):
            disk_store.support_size("ghost")

    def test_queries_bit_identical_vs_memory(self, memory_store, disk_store):
        for source in (memory_store, disk_store):
            assert "target" in source
        mem_topk = swope_top_k_entropy(memory_store, 3, seed=SEED, epsilon=0.3)
        disk_topk = swope_top_k_entropy(disk_store, 3, seed=SEED, epsilon=0.3)
        assert mem_topk.attributes == disk_topk.attributes
        assert mem_topk.estimates == disk_topk.estimates
        assert (
            mem_topk.stats.cells_scanned == disk_topk.stats.cells_scanned
        )
        mem_mi = swope_top_k_mutual_information(
            memory_store, "target", 2, seed=SEED, epsilon=0.6
        )
        disk_mi = swope_top_k_mutual_information(
            disk_store, "target", 2, seed=SEED, epsilon=0.6
        )
        assert mem_mi.attributes == disk_mi.attributes
        assert mem_mi.estimates == disk_mi.estimates


# ----------------------------------------------------------------------
# Durability on an mmap-backed plan
# ----------------------------------------------------------------------
def _specs() -> list[QuerySpec]:
    return [
        QuerySpec(kind="top_k", score="entropy", k=2),
        QuerySpec(
            kind="top_k", score="mutual_information", k=1, target="target"
        ),
    ]


class TestMmapCheckpointResume:
    def test_checkpoint_records_mmap_fingerprint(self, disk_store, tmp_path):
        path = tmp_path / "plan.ckpt"
        executor = PlanExecutor(disk_store, seed=SEED, checkpoint_path=path)
        executor.execute(plan_queries(disk_store, _specs()))
        snapshot = load_checkpoint(path, store=disk_store)
        assert snapshot.dataset["fingerprint"] == disk_store.fingerprint()

    def test_resume_round_trip_across_reopen(
        self, memory_store, disk_store, tmp_path
    ):
        plan = plan_queries(disk_store, _specs())
        path = tmp_path / "plan.ckpt"
        reference = plan_fingerprint(
            PlanExecutor(memory_store, seed=SEED).execute(
                plan_queries(memory_store, _specs())
            )
        )
        outcome = PlanExecutor(
            disk_store, seed=SEED, checkpoint_path=path
        ).execute(plan)
        # mmap-backed plan answers equal the in-memory plan answers.
        assert plan_fingerprint(outcome) == reference
        # Resume against a *reopened* store: the fingerprint recorded in
        # the checkpoint must match the manifest of the fresh handle.
        reopened = MmapStore.open(disk_store.directory)
        resumed = PlanExecutor.resume(path, reopened)
        replay = resumed.execute(resumed.resumed_plan())
        assert plan_fingerprint(replay) == reference

    def test_resume_rejects_different_store(self, disk_store, tmp_path, rng):
        path = tmp_path / "plan.ckpt"
        PlanExecutor(disk_store, seed=SEED, checkpoint_path=path).execute(
            plan_queries(disk_store, _specs())
        )
        other = ColumnStore(
            {
                "wide": rng.integers(0, 40, 100),
                "narrow": rng.integers(0, 3, 100),
                "target": rng.integers(0, 5, 100),
                "noisy": rng.integers(0, 5, 100),
            }
        )
        with pytest.raises(CheckpointMismatchError):
            PlanExecutor.resume(path, other)


# ----------------------------------------------------------------------
# Stores written with int16 columns (before int8 storage)
# ----------------------------------------------------------------------
def _legacy_fingerprint(store: MmapStore) -> str:
    """The fingerprint recipe of int16-only builds, over the column files.

    Written out here rather than called, so the test pins the manifests
    that earlier builds wrote, independently of the library's helper. The
    files are in layout order; the fingerprint hashes the original order.
    """
    logical = np.argsort(store.sampling_layout().permutation())
    digest = hashlib.sha256()
    digest.update(f"rows:{store.num_rows}\n".encode("utf-8"))
    for name in store.attributes:
        column = np.asarray(store.column(name))[logical]
        digest.update(
            f"col:{name}:{store.support_size(name)}:{column.dtype.str}\n".encode(
                "utf-8"
            )
        )
        digest.update(column.tobytes())
    return digest.hexdigest()


def _write_int16_copy(source: MmapStore, directory) -> MmapStore:
    """Copy ``source`` with every column file and manifest dtype as ``<i2``."""
    shutil.copytree(source.directory, directory)
    manifest_path = directory / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    for entry in manifest["columns"]:
        path = directory / entry["file"]
        np.save(path, np.load(path).astype(np.int16))
        entry["dtype"] = np.dtype(np.int16).str
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    return MmapStore.open(directory)


class TestLegacyWidth:
    @pytest.fixture()
    def stores(self, tmp_path) -> dict[str, ColumnSource]:
        memory = _golden_store()
        narrow = MmapStore.from_column_store(memory, tmp_path / "int8")
        legacy = _write_int16_copy(narrow, tmp_path / "int16")
        return {"memory": memory, "int8": narrow, "int16": legacy}

    def test_widths_on_disk(self, stores):
        for name in stores["memory"].attributes:
            assert stores["int8"].column(name).dtype == np.int8
            assert stores["int16"].column(name).dtype == np.int16

    def test_opens_and_verifies(self, stores):
        legacy = stores["int16"]
        assert _legacy_fingerprint(legacy) == legacy.fingerprint()
        assert legacy.verify_fingerprint() == legacy.fingerprint()
        assert stores["int8"].verify_fingerprint() == legacy.fingerprint()

    def test_one_fingerprint(self, stores):
        fingerprints = {store.fingerprint() for store in stores.values()}
        assert fingerprints == {_legacy_fingerprint(stores["int16"])}

    def test_same_plan_on_every_store(self, stores):
        outcomes = [
            plan_fingerprint(
                PlanExecutor(store, seed=SEED).execute(
                    plan_queries(store, _mixed_specs())
                )
            )
            for store in stores.values()
        ]
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_checkpoint_from_int16_resumes_on_int8(self, stores, tmp_path):
        legacy, narrow = stores["int16"], stores["int8"]
        specs = _mixed_specs()
        reference = plan_fingerprint(
            PlanExecutor(narrow, seed=SEED).execute(plan_queries(narrow, specs))
        )
        kill_at = count_iteration_boundaries(legacy, specs, seed=SEED) // 2
        path = tmp_path / "legacy.ckpt"
        with pytest.raises(SimulatedKillError):
            PlanExecutor(legacy, seed=SEED, checkpoint_path=path).execute(
                plan_queries(legacy, specs),
                cancellation=BoundaryFaultToken(ChaosPlan.kill_at(kill_at)),
            )
        resumed = PlanExecutor.resume(path, narrow)
        outcome = resumed.execute(resumed.resumed_plan())
        assert plan_fingerprint(outcome) == reference

    @pytest.mark.parametrize("warm_on,serve_on", [("int16", "int8"), ("int8", "int16")])
    def test_cache_partition_crosses_widths(
        self, stores, tmp_path, warm_on, serve_on
    ):
        specs = _mixed_specs()
        cold_store, warm_store = stores[warm_on], stores[serve_on]
        cold = PlanExecutor(cold_store, seed=SEED, cache_dir=tmp_path).execute(
            plan_queries(cold_store, specs)
        )
        assert cold.stats.cells_scanned > 0
        warm = PlanExecutor(warm_store, seed=SEED, cache_dir=tmp_path).execute(
            plan_queries(warm_store, specs)
        )
        assert warm.stats.cells_scanned == 0
        assert _payloads(warm) == _payloads(cold)
