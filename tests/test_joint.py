"""Unit tests for :mod:`repro.data.joint` (pair counters)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.joint import DENSE_LIMIT, JointCounter
from repro.exceptions import ParameterError


class TestConstruction:
    def test_dense_below_limit(self):
        assert JointCounter(10, 10).is_dense

    def test_sparse_above_limit(self):
        counter = JointCounter(10, 10, dense_limit=50)
        assert not counter.is_dense

    def test_default_limit(self):
        assert DENSE_LIMIT == 1_000_000

    def test_invalid_supports_rejected(self):
        with pytest.raises(ParameterError):
            JointCounter(0, 5)
        with pytest.raises(ParameterError):
            JointCounter(5, -1)

    def test_support_product(self):
        assert JointCounter(3, 7).support_product == 21


@pytest.mark.parametrize("dense_limit", [1_000_000, 1])
class TestCounting:
    def test_update_and_count_of(self, dense_limit):
        counter = JointCounter(3, 4, dense_limit=dense_limit)
        counter.update(np.array([0, 0, 1, 2]), np.array([1, 1, 3, 0]))
        assert counter.total == 4
        assert counter.count_of(0, 1) == 2
        assert counter.count_of(1, 3) == 1
        assert counter.count_of(2, 0) == 1
        assert counter.count_of(2, 3) == 0

    def test_incremental_updates_accumulate(self, dense_limit):
        counter = JointCounter(2, 2, dense_limit=dense_limit)
        counter.update(np.array([0]), np.array([1]))
        counter.update(np.array([0, 1]), np.array([1, 1]))
        assert counter.count_of(0, 1) == 2
        assert counter.count_of(1, 1) == 1
        assert counter.total == 3

    def test_nonzero_counts_sum_to_total(self, dense_limit):
        rng = np.random.default_rng(0)
        counter = JointCounter(5, 6, dense_limit=dense_limit)
        counter.update(rng.integers(0, 5, 500), rng.integers(0, 6, 500))
        nonzero = counter.nonzero_counts()
        assert nonzero.sum() == 500
        assert (nonzero > 0).all()

    def test_distinct_pairs(self, dense_limit):
        counter = JointCounter(2, 2, dense_limit=dense_limit)
        counter.update(np.array([0, 0, 1]), np.array([0, 0, 1]))
        assert counter.distinct_pairs() == 2

    def test_empty_update_is_noop(self, dense_limit):
        counter = JointCounter(2, 2, dense_limit=dense_limit)
        counter.update(np.array([], dtype=int), np.array([], dtype=int))
        assert counter.total == 0
        assert counter.nonzero_counts().size == 0


class TestSparseDenseEquivalence:
    def test_same_counts_both_modes(self):
        rng = np.random.default_rng(42)
        a = rng.integers(0, 20, 2000)
        b = rng.integers(0, 30, 2000)
        dense = JointCounter(20, 30)
        sparse = JointCounter(20, 30, dense_limit=1)
        dense.update(a, b)
        sparse.update(a, b)
        assert dense.distinct_pairs() == sparse.distinct_pairs()
        assert np.array_equal(
            np.sort(dense.nonzero_counts()), np.sort(sparse.nonzero_counts())
        )


class TestCountThenAdd:
    def test_update_is_count_then_add(self):
        rng = np.random.default_rng(3)
        a, b = rng.integers(0, 4, 300), rng.integers(0, 5, 300)
        updated = JointCounter(4, 5)
        updated.update(a, b)
        split = JointCounter(4, 5)
        delta = split.count(a, b)
        assert split.total == 0 and split.nonzero_counts().size == 0
        split.add(delta, a.size)
        assert split.total == updated.total
        assert np.array_equal(split.snapshot()["dense"], updated.snapshot()["dense"])

    def test_marginals_are_row_and_column_sums(self):
        rng = np.random.default_rng(4)
        a, b = rng.integers(0, 4, 300), rng.integers(0, 5, 300)
        counter = JointCounter(4, 5)
        counter.update(a, b)
        assert np.array_equal(counter.marginal(0), np.bincount(a, minlength=4))
        assert np.array_equal(counter.marginal(1), np.bincount(b, minlength=5))

    def test_sparse_counter_has_no_split(self):
        counter = JointCounter(4, 5, dense_limit=1)
        a = np.array([0, 1])
        with pytest.raises(ParameterError, match="dense"):
            counter.count(a, a)
        with pytest.raises(ParameterError, match="dense"):
            counter.add(np.zeros(20, dtype=np.int64), 0)
        with pytest.raises(ParameterError, match="dense"):
            counter.marginal(0)


class TestErrors:
    def test_mismatched_batch_shapes(self):
        counter = JointCounter(2, 2)
        with pytest.raises(ParameterError, match="mismatched"):
            counter.update(np.array([0]), np.array([0, 1]))

    def test_count_of_out_of_range(self):
        counter = JointCounter(2, 2)
        with pytest.raises(ParameterError, match="outside supports"):
            counter.count_of(2, 0)
        with pytest.raises(ParameterError, match="outside supports"):
            counter.count_of(0, -1)
