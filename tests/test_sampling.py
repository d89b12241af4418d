"""Unit tests for :mod:`repro.data.sampling` (the prefix sampler)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.column_store import ColumnStore
from repro.data.sampling import PrefixSampler
from repro.exceptions import ParameterError, SchemaError


@pytest.fixture
def store(rng):
    n = 2000
    return ColumnStore(
        {
            "x": rng.integers(0, 10, n),
            "y": rng.integers(0, 5, n),
            "z": rng.integers(0, 3, n),
        }
    )


class TestShuffle:
    def test_prefix_is_permutation_prefix(self, store):
        sampler = PrefixSampler(store, seed=1)
        prefix_small = sampler.shuffled_prefix(10)
        prefix_big = sampler.shuffled_prefix(50)
        assert np.array_equal(prefix_big[:10], prefix_small)
        assert len(set(prefix_big.tolist())) == 50  # without replacement

    def test_same_seed_same_shuffle(self, store):
        a = PrefixSampler(store, seed=7).shuffled_prefix(100)
        b = PrefixSampler(store, seed=7).shuffled_prefix(100)
        assert np.array_equal(a, b)

    def test_shuffle_is_read_only_and_hashed_once(self, store, monkeypatch):
        from repro.data import sampling

        calls: list[int] = []
        real = sampling._permutation_sha256

        def counting(perm):
            calls.append(len(perm))
            return real(perm)

        monkeypatch.setattr(sampling, "_permutation_sha256", counting)
        sampler = PrefixSampler(store, seed=3)
        first = sampler.shuffle_fingerprint()
        sampler.state_snapshot()
        assert sampler.shuffle_fingerprint() == first
        assert calls == [store.num_rows]
        with pytest.raises(ValueError):
            sampler.shuffled_prefix(10)[0] = 0

    def test_different_seeds_differ(self, store):
        a = PrefixSampler(store, seed=1).shuffled_prefix(100)
        b = PrefixSampler(store, seed=2).shuffled_prefix(100)
        assert not np.array_equal(a, b)

    def test_generator_accepted(self, store):
        sampler = PrefixSampler(store, seed=np.random.default_rng(3))
        assert sampler.shuffled_prefix(5).shape == (5,)

    def test_sequential_mode_is_identity(self, store):
        sampler = PrefixSampler(store, sequential=True)
        assert np.array_equal(sampler.shuffled_prefix(10), np.arange(10))

    def test_prefix_bounds_checked(self, store):
        sampler = PrefixSampler(store, seed=1)
        with pytest.raises(ParameterError):
            sampler.shuffled_prefix(0)
        with pytest.raises(ParameterError):
            sampler.shuffled_prefix(store.num_rows + 1)


class TestMarginalCounts:
    def test_counts_match_direct_count(self, store):
        sampler = PrefixSampler(store, seed=5)
        m = 300
        counts = sampler.marginal_counts("x", m)
        rows = sampler.shuffled_prefix(m)
        expected = np.bincount(store.column("x")[rows], minlength=10)
        assert np.array_equal(counts, expected)
        assert counts.sum() == m

    def test_incremental_extension_matches_fresh_count(self, store):
        sampler = PrefixSampler(store, seed=5)
        sampler.marginal_counts("x", 100)
        counts = sampler.marginal_counts("x", 700)
        fresh = PrefixSampler(store, seed=5).marginal_counts("x", 700)
        assert np.array_equal(counts, fresh)

    def test_full_prefix_equals_population_counts(self, store):
        sampler = PrefixSampler(store, seed=5)
        counts = sampler.marginal_counts("y", store.num_rows)
        assert np.array_equal(counts, store.value_counts("y"))

    def test_shrinking_prefix_rejected(self, store):
        sampler = PrefixSampler(store, seed=5)
        sampler.marginal_counts("x", 500)
        with pytest.raises(ParameterError, match="cannot shrink"):
            sampler.marginal_counts("x", 100)

    def test_same_prefix_twice_no_extra_cost(self, store):
        sampler = PrefixSampler(store, seed=5)
        sampler.marginal_counts("x", 500)
        cost = sampler.cells_scanned
        sampler.marginal_counts("x", 500)
        assert sampler.cells_scanned == cost

    def test_cells_accounting(self, store):
        sampler = PrefixSampler(store, seed=5)
        sampler.marginal_counts("x", 100)
        sampler.marginal_counts("y", 200)
        sampler.marginal_counts("x", 400)
        assert sampler.cells_scanned == 100 + 200 + 300


class TestJointCounts:
    def test_joint_counts_match_direct(self, store):
        sampler = PrefixSampler(store, seed=9)
        m = 400
        counter = sampler.joint_counts("x", "y", m)
        rows = sampler.shuffled_prefix(m)
        x = store.column("x")[rows]
        y = store.column("y")[rows]
        for i in range(10):
            for j in range(5):
                assert counter.count_of(i, j) == int(((x == i) & (y == j)).sum())

    def test_pair_key_is_symmetric(self, store):
        sampler = PrefixSampler(store, seed=9)
        first = sampler.joint_counts("x", "y", 100)
        second = sampler.joint_counts("y", "x", 100)
        assert first is second

    def test_joint_cells_cost_two_per_record(self, store):
        sampler = PrefixSampler(store, seed=9)
        sampler.joint_counts("x", "y", 100)
        assert sampler.cells_scanned == 200

    def test_joint_with_self_rejected(self, store):
        sampler = PrefixSampler(store, seed=9)
        with pytest.raises(SchemaError, match="marginal"):
            sampler.joint_counts("x", "x", 10)

    def test_joint_shrinking_rejected(self, store):
        sampler = PrefixSampler(store, seed=9)
        sampler.joint_counts("x", "y", 500)
        with pytest.raises(ParameterError, match="cannot shrink"):
            sampler.joint_counts("x", "y", 100)

    def test_joint_incremental_matches_fresh(self, store):
        sampler = PrefixSampler(store, seed=9)
        sampler.joint_counts("x", "z", 128)
        counter = sampler.joint_counts("x", "z", 1024)
        fresh = PrefixSampler(store, seed=9).joint_counts("x", "z", 1024)
        assert np.array_equal(
            np.sort(counter.nonzero_counts()), np.sort(fresh.nonzero_counts())
        )


class TestRelease:
    def test_release_drops_marginal_and_joint(self, store):
        sampler = PrefixSampler(store, seed=3)
        sampler.marginal_counts("x", 500)
        sampler.joint_counts("x", "y", 500)
        sampler.release("x")
        cost_before = sampler.cells_scanned
        # re-counting starts from scratch (costs again)
        sampler.marginal_counts("x", 500)
        assert sampler.cells_scanned == cost_before + 500

    def test_release_unknown_is_noop(self, store):
        PrefixSampler(store, seed=3).release("never_counted")
