"""Tests for the batched, backend-pluggable counting core.

Three layers:

* the :mod:`repro.data.backends` seam itself — resolution, the protocol,
  and count equivalence of ``numpy`` vs ``process``;
* the sampler's batch methods — bit-identical counts and identical cost
  accounting vs the scalar calls they replaced;
* the bounds/engine batch path — batched intervals exactly equal (``==``
  field for field, not approximately) to the per-attribute scalar
  intervals, and all four queries returning identical answers under both
  backends with the same seed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PlanExecutor,
    swope_filter_entropy,
    swope_filter_mutual_information,
    swope_top_k_entropy,
    swope_top_k_mutual_information,
)
from repro.core.bounds import entropy_interval, entropy_intervals, mi_intervals
from repro.core.engine import (
    EntropyScoreProvider,
    MutualInformationScoreProvider,
)
import repro.data.backends as backends_module
from repro.data.backends import (
    BACKEND_ENV_VAR,
    BACKEND_NAMES,
    NumpyBackend,
    ProcessBackend,
    backend_names,
    register_backend,
    resolve_backend,
)
from repro.data.column_store import ColumnStore
from repro.data.mmap_store import MmapStore
from repro.data.sampling import PrefixSampler
from repro.exceptions import ParameterError, SchemaError

BACKENDS = list(BACKEND_NAMES)


def random_store(
    seed: int, num_rows: int = 400, num_columns: int = 6, max_support: int = 12
) -> ColumnStore:
    rng = np.random.default_rng(seed)
    columns = {}
    for i in range(num_columns):
        support = int(rng.integers(2, max_support + 1))
        columns[f"a{i}"] = rng.integers(0, support, size=num_rows)
    return ColumnStore(columns)


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------
class TestResolveBackend:
    def test_names_map_to_backends(self):
        assert isinstance(resolve_backend("numpy"), NumpyBackend)
        assert isinstance(resolve_backend("process"), ProcessBackend)

    def test_none_defaults_to_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert isinstance(resolve_backend(None), NumpyBackend)

    def test_none_honours_environment(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        assert isinstance(resolve_backend(None), ProcessBackend)

    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError, match="unknown counting backend"):
            resolve_backend("cuda")

    def test_bad_env_name_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "gpu")
        with pytest.raises(ParameterError, match="unknown counting backend"):
            resolve_backend(None)

    def test_instance_passes_through(self):
        backend = ProcessBackend(max_workers=2)
        assert resolve_backend(backend) is backend

    def test_non_backend_object_rejected(self):
        with pytest.raises(ParameterError, match="count_columns"):
            resolve_backend(object())  # type: ignore[arg-type]

    def test_backend_names_are_stable(self):
        assert BACKEND_NAMES == ("numpy", "process")
        assert NumpyBackend().name == "numpy"
        assert ProcessBackend().name == "process"

    def test_process_worker_count_validated(self):
        with pytest.raises(ParameterError, match="max_workers"):
            ProcessBackend(max_workers=0)


class TestBackendRegistry:
    def test_backend_names_reflects_registry(self):
        assert backend_names() == ("numpy", "process")

    def test_register_custom_backend(self, monkeypatch):
        monkeypatch.setattr(
            backends_module, "BACKEND_REGISTRY", dict(backends_module.BACKEND_REGISTRY)
        )
        register_backend("custom", NumpyBackend)
        assert "custom" in backend_names()
        assert isinstance(resolve_backend("custom"), NumpyBackend)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ParameterError, match="already registered"):
            register_backend("numpy", NumpyBackend)

    def test_replace_allows_override(self, monkeypatch):
        monkeypatch.setattr(
            backends_module, "BACKEND_REGISTRY", dict(backends_module.BACKEND_REGISTRY)
        )
        register_backend("numpy", ProcessBackend, replace=True)
        assert isinstance(resolve_backend("numpy"), ProcessBackend)

    def test_env_var_accepts_registered_backend(self, monkeypatch):
        monkeypatch.setattr(
            backends_module, "BACKEND_REGISTRY", dict(backends_module.BACKEND_REGISTRY)
        )
        register_backend("custom", NumpyBackend)
        monkeypatch.setenv(BACKEND_ENV_VAR, "custom")
        assert isinstance(resolve_backend(None), NumpyBackend)

    def test_unknown_error_lists_registered_names(self):
        with pytest.raises(ParameterError, match="process"):
            resolve_backend("cuda")


# ----------------------------------------------------------------------
# count_columns equivalence
# ----------------------------------------------------------------------
class TestCountColumns:
    @pytest.mark.parametrize("rows_kind", ["array", "slice"])
    def test_backends_agree_with_bincount(self, rows_kind):
        rng = np.random.default_rng(11)
        columns = [
            rng.integers(0, support, size=300) for support in (3, 7, 16, 2)
        ]
        supports = [3, 7, 16, 2]
        if rows_kind == "array":
            rows = rng.permutation(300)[:120]
        else:
            rows = slice(0, 120)
        expected = [
            np.bincount(col[rows], minlength=u)
            for col, u in zip(columns, supports)
        ]
        for name in BACKENDS:
            got = resolve_backend(name).count_columns(columns, supports, rows)
            assert len(got) == len(expected)
            for g, e in zip(got, expected):
                np.testing.assert_array_equal(g, e)


class TestProcessBackend:
    @pytest.mark.parametrize("rows_kind", ["array", "slice"])
    def test_serial_and_pool_paths_agree_with_bincount(self, rows_kind):
        rng = np.random.default_rng(21)
        supports = [3, 9, 17]
        columns = [rng.integers(0, u, size=2000) for u in supports]
        if rows_kind == "array":
            rows = rng.permutation(2000)[:900]
        else:
            rows = slice(0, 900)
        expected = [
            np.bincount(c[rows], minlength=u) for c, u in zip(columns, supports)
        ]
        serial = ProcessBackend(max_workers=1)
        pooled = ProcessBackend(max_workers=2, min_parallel_cells=0)
        try:
            for backend in (serial, pooled):
                got = backend.count_columns(columns, supports, rows)
                assert len(got) == len(expected)
                for g, e in zip(got, expected):
                    np.testing.assert_array_equal(g, e)
        finally:
            serial.close()
            pooled.close()

    def test_small_batches_bypass_the_pool(self):
        backend = ProcessBackend(max_workers=2)  # default cell threshold
        try:
            rng = np.random.default_rng(2)
            column = rng.integers(0, 5, size=64)
            out = backend.count_columns([column], [5], slice(0, 64))
            np.testing.assert_array_equal(
                out[0], np.bincount(column, minlength=5)
            )
            assert backend._executor is None  # pool never created
        finally:
            backend.close()

    def test_memmap_columns_count_through_the_pool(self, tmp_path):
        store = random_store(31, num_rows=1200, num_columns=4)
        on_disk = MmapStore.from_column_store(store, tmp_path / "store")
        names = list(store.attributes)
        supports = [store.support_size(a) for a in names]
        rows = np.random.default_rng(31).permutation(1200)[:700]
        expected = [
            np.bincount(store.column(a)[rows], minlength=u)
            for a, u in zip(names, supports)
        ]
        backend = ProcessBackend(max_workers=2, min_parallel_cells=0)
        try:
            got = backend.count_columns(
                [on_disk.column(a) for a in names], supports, rows
            )
            for g, e in zip(got, expected):
                np.testing.assert_array_equal(g, e)
        finally:
            backend.close()


# ----------------------------------------------------------------------
# Sampler batch methods vs scalar calls
# ----------------------------------------------------------------------
class TestMarginalBatch:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_equals_scalar_counts_and_cost(self, backend, seed):
        store = random_store(seed)
        scalar = PrefixSampler(store, seed=seed)
        batched = PrefixSampler(store, seed=seed, backend=backend)
        names = list(store.attributes)
        for num_rows in (13, 13, 64, 200, store.num_rows):
            expected = {a: scalar.marginal_counts(a, num_rows) for a in names}
            got = batched.marginal_counts_batch(names, num_rows)
            assert list(got) == names
            for a in names:
                np.testing.assert_array_equal(got[a], expected[a])
            assert batched.cells_scanned == scalar.cells_scanned

    def test_duplicate_names_counted_once(self):
        store = random_store(3)
        sampler = PrefixSampler(store, seed=3)
        name = store.attributes[0]
        counts = sampler.marginal_counts_batch([name, name, name], 50)
        assert list(counts) == [name]
        assert sampler.cells_scanned == 50

    def test_mixed_progress_extends_only_missing_blocks(self):
        store = random_store(4)
        reference = PrefixSampler(store, seed=4)
        sampler = PrefixSampler(store, seed=4)
        a, b = store.attributes[0], store.attributes[1]
        sampler.marginal_counts(a, 100)  # a is ahead of b
        reference.marginal_counts(a, 100)
        got = sampler.marginal_counts_batch([a, b], 200)
        np.testing.assert_array_equal(got[a], reference.marginal_counts(a, 200))
        np.testing.assert_array_equal(got[b], reference.marginal_counts(b, 200))
        # a paid 100 + 100 cells, b paid 200: identical to the scalar path.
        assert sampler.cells_scanned == reference.cells_scanned == 400

    def test_shrinking_prefix_rejected_with_scalar_message(self):
        store = random_store(5)
        sampler = PrefixSampler(store, seed=5)
        name = store.attributes[0]
        sampler.marginal_counts_batch([name], 100)
        with pytest.raises(ParameterError, match="cannot shrink"):
            sampler.marginal_counts_batch([name], 50)


class TestJointBatch:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_batch_equals_scalar_counters_and_cost(self, backend, seed):
        store = random_store(seed)
        scalar = PrefixSampler(store, seed=seed)
        batched = PrefixSampler(store, seed=seed, backend=backend)
        target = store.attributes[0]
        seconds = list(store.attributes[1:])
        for num_rows in (20, 150, store.num_rows):
            expected = {
                a: scalar.joint_counts(target, a, num_rows) for a in seconds
            }
            got = batched.joint_counts_batch(target, seconds, num_rows)
            assert list(got) == seconds
            for a in seconds:
                assert got[a].total == expected[a].total
                np.testing.assert_array_equal(
                    np.sort(got[a].nonzero_counts()),
                    np.sort(expected[a].nonzero_counts()),
                )
            assert batched.cells_scanned == scalar.cells_scanned

    def test_self_pair_rejected(self):
        store = random_store(8)
        sampler = PrefixSampler(store, seed=8)
        name = store.attributes[0]
        with pytest.raises(SchemaError, match="marginal counts"):
            sampler.joint_counts_batch(name, [name], 10)


# ----------------------------------------------------------------------
# Batched bounds are exactly the scalar bounds
# ----------------------------------------------------------------------
class TestBatchedBounds:
    @given(
        entropies=st.lists(
            st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
            min_size=1,
            max_size=16,
        ),
        supports=st.lists(
            st.integers(min_value=1, max_value=10_000), min_size=16, max_size=16
        ),
        sample_size=st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=60, deadline=None)
    def test_entropy_intervals_equal_scalar(
        self, entropies, supports, sample_size
    ):
        supports = supports[: len(entropies)]
        population, p = 1000, 0.01
        batch = entropy_intervals(entropies, supports, sample_size, population, p)
        for h, u, iv in zip(entropies, supports, batch):
            assert iv == entropy_interval(h, u, sample_size, population, p)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ParameterError, match="support sizes"):
            entropy_intervals([1.0, 2.0], [4], 10, 100, 0.01)

    def test_mi_length_mismatch_rejected(self):
        target = entropy_interval(1.0, 4, 10, 100, 0.01)
        with pytest.raises(ParameterError, match="joint entropies"):
            mi_intervals(target, [1.0], [4], [1.0, 2.0], 4, 10, 100, 0.01)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_provider_batch_equals_scalar_entropy(self, backend, seed):
        store = random_store(seed, num_rows=300)
        names = list(store.attributes)
        scalar_provider = EntropyScoreProvider(
            PrefixSampler(store, seed=seed), 0.01
        )
        batch_provider = EntropyScoreProvider(
            PrefixSampler(store, seed=seed, backend=backend), 0.01
        )
        for sample_size in (17, 80, 300):
            batch = batch_provider.intervals(names, sample_size)
            for a in names:
                assert batch[a] == scalar_provider.intervals([a], sample_size)[a]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", [0, 5])
    def test_provider_batch_equals_scalar_mi(self, backend, seed):
        store = random_store(seed, num_rows=300)
        target = store.attributes[0]
        names = list(store.attributes[1:])
        scalar_provider = MutualInformationScoreProvider(
            PrefixSampler(store, seed=seed), target, 0.01
        )
        batch_provider = MutualInformationScoreProvider(
            PrefixSampler(store, seed=seed, backend=backend), target, 0.01
        )
        for sample_size in (25, 120, 300):
            batch = batch_provider.intervals(names, sample_size)
            for a in names:
                assert batch[a] == scalar_provider.intervals([a], sample_size)[a]

    def test_mi_batch_rejects_target_candidate(self):
        store = random_store(9)
        target = store.attributes[0]
        provider = MutualInformationScoreProvider(
            PrefixSampler(store, seed=9), target, 0.01
        )
        with pytest.raises(SchemaError, match="equals the target"):
            provider.intervals([store.attributes[1], target], 50)


# ----------------------------------------------------------------------
# End-to-end: identical answers under numpy and process
# ----------------------------------------------------------------------
class TestBackendEquivalence:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_four_queries_identical_across_backends(self, seed):
        store = random_store(seed, num_rows=600, num_columns=8)
        target = store.attributes[0]

        def run_all(backend):
            topk = swope_top_k_entropy(
                store, 3, seed=seed, epsilon=0.3, backend=backend
            )
            filt = swope_filter_entropy(
                store, 1.5, seed=seed, epsilon=0.2, backend=backend
            )
            mi_topk = swope_top_k_mutual_information(
                store, target, 2, seed=seed, epsilon=0.6, backend=backend
            )
            mi_filt = swope_filter_mutual_information(
                store, target, 0.05, seed=seed, epsilon=0.6, backend=backend
            )
            return topk, filt, mi_topk, mi_filt

        numpy_results = run_all("numpy")
        process = ProcessBackend(max_workers=2, min_parallel_cells=0)
        try:
            process_results = run_all(process)
        finally:
            process.close()
        for via_numpy, via_process in zip(numpy_results, process_results):
            assert via_numpy.attributes == via_process.attributes
            assert (
                via_numpy.stats.cells_scanned == via_process.stats.cells_scanned
            )
            assert (
                via_numpy.stats.final_sample_size
                == via_process.stats.final_sample_size
            )
            n_est, t_est = via_numpy.estimates, via_process.estimates
            if isinstance(n_est, dict):
                assert set(n_est) == set(t_est)
                pairs = [(n_est[a], t_est[a]) for a in n_est]
            else:
                pairs = list(zip(n_est, t_est))
            for left, right in pairs:
                assert left == right

    @pytest.mark.parametrize("store_kind", ["memory", "mmap"])
    def test_four_queries_identical_process_vs_numpy(
        self, store_kind, tmp_path
    ):
        base = random_store(13, num_rows=800, num_columns=6)
        store = (
            base
            if store_kind == "memory"
            else MmapStore.from_column_store(base, tmp_path / "store")
        )
        target = base.attributes[0]

        def run_all(source, backend):
            topk = swope_top_k_entropy(
                source, 3, seed=13, epsilon=0.3, backend=backend
            )
            filt = swope_filter_entropy(
                source, 1.5, seed=13, epsilon=0.2, backend=backend
            )
            mi_topk = swope_top_k_mutual_information(
                source, target, 2, seed=13, epsilon=0.6, backend=backend
            )
            mi_filt = swope_filter_mutual_information(
                source, target, 0.05, seed=13, epsilon=0.6, backend=backend
            )
            return topk, filt, mi_topk, mi_filt

        # The reference runs on the in-memory store under numpy, so the
        # matrix also pins mmap answers to the in-memory ones.
        reference = run_all(base, "numpy")
        process = ProcessBackend(max_workers=2, min_parallel_cells=0)
        try:
            candidate = run_all(store, process)
        finally:
            process.close()
        for via_numpy, via_process in zip(reference, candidate):
            assert via_numpy.attributes == via_process.attributes
            assert (
                via_numpy.stats.cells_scanned
                == via_process.stats.cells_scanned
            )
            n_est, p_est = via_numpy.estimates, via_process.estimates
            if isinstance(n_est, dict):
                assert set(n_est) == set(p_est)
                pairs = [(n_est[a], p_est[a]) for a in n_est]
            else:
                pairs = list(zip(n_est, p_est))
            for left, right in pairs:
                assert left == right

    def test_session_process_backend_matches_numpy(self):
        # 500 rows stay under min_parallel_cells: the serial fallback runs.
        store = random_store(2, num_rows=500)
        answers = []
        for backend in BACKENDS:
            executor = PlanExecutor(store, seed=2, backend=backend)
            result = executor.top_k_entropy(3)
            answers.append((result.attributes, result.stats.cells_scanned))
        assert answers[0] == answers[1]

    def test_phase_timings_recorded(self):
        store = random_store(6, num_rows=500)
        result = swope_top_k_entropy(store, 2, seed=6)
        stats = result.stats
        assert stats.counting_seconds >= 0.0
        assert stats.bounds_seconds >= 0.0
        assert (
            stats.counting_seconds + stats.bounds_seconds <= stats.wall_seconds
        )
        assert stats.loop_seconds >= 0.0
