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


def _pairs(u1: int, u2: int, n: int = 5_000, seed: int = 0):
    """Random codes of two columns in the narrowest store dtype, with
    both extreme codes present."""
    rng = np.random.default_rng(seed)
    first = rng.integers(0, u1, n)
    second = rng.integers(0, u2, n)
    first[:2], second[:2] = (0, u1 - 1), (0, u2 - 1)

    def dtype(u: int) -> type:
        return np.int8 if u <= 128 else np.int16 if u <= 32_767 else np.int32

    return first.astype(dtype(u1)), second.astype(dtype(u2))


def _reference_codes(first: np.ndarray, second: np.ndarray, u2: int) -> np.ndarray:
    return first.astype(np.int64) * u2 + second.astype(np.int64)


class TestNarrowCodes:
    """Pair codes built in int16/int32 count exactly what int64 codes count."""

    # u1 * u2 around 2**15, with a u = 1 column on either side
    SHAPES = [
        (1, 2**15 - 1), (1, 2**15), (1, 2**15 + 1),
        (2**15 - 1, 1), (2**15, 1), (2**15 + 1, 1),
        (3, 10_923),  # 2**15 + 1 with both supports above 1
    ]

    @pytest.mark.parametrize("u1,u2", SHAPES)
    def test_code_type_is_the_narrowest_that_fits(self, u1, u2):
        first, second = _pairs(u1, u2)
        codes = JointCounter(u1, u2)._codes(first, second)
        assert codes.dtype == (np.int16 if u1 * u2 < 2**15 else np.int32)
        np.testing.assert_array_equal(codes, _reference_codes(first, second, u2))

    @pytest.mark.parametrize("u1,u2", SHAPES)
    def test_dense_counts_match_int64_codes(self, u1, u2):
        first, second = _pairs(u1, u2)
        reference = np.bincount(
            _reference_codes(first, second, u2), minlength=u1 * u2
        )
        counter = JointCounter(u1, u2)
        assert counter.is_dense
        # the held-delta path: count() now, add() later
        delta = counter.count(first, second)
        np.testing.assert_array_equal(delta, reference)
        counter.add(delta, first.size)
        counter.update(first, second)
        np.testing.assert_array_equal(counter.snapshot()["dense"], 2 * reference)
        np.testing.assert_array_equal(counter.marginal(0), 2 * np.bincount(first, minlength=u1))

    @pytest.mark.parametrize(
        "u1,u2", [*SHAPES, (1, 2**31 - 1), (1, 2**31), (2, 2**30 + 1)]
    )
    def test_sparse_counts_match_int64_codes(self, u1, u2):
        first, second = _pairs(u1, u2)
        codes, counts = np.unique(
            _reference_codes(first, second, u2), return_counts=True
        )
        counter = JointCounter(u1, u2, dense_limit=0)
        half = first.size // 2
        counter.update(first[:half], second[:half])
        counter.update(first[half:], second[half:])
        state = counter.snapshot()
        got = dict(zip(state["sparse_codes"].tolist(), state["sparse_counts"].tolist()))
        assert got == dict(zip(codes.tolist(), counts.tolist()))
        expected = np.int16 if u1 * u2 < 2**15 else np.int32 if u1 * u2 < 2**31 else np.int64
        assert counter._codes(first, second).dtype == expected

    @pytest.mark.parametrize("u2", [2**15 - 1, 2**15, 2**15 + 1])
    def test_held_deltas_match_int64_codes(self, u2):
        # A constant target and a candidate of support u2: the entropy
        # query between two MI queries counts the joint delta ahead.
        from repro.data.column_store import ColumnStore
        from repro.data.sampling import PrefixSampler

        _, values = _pairs(1, u2, n=4_000, seed=1)
        store = ColumnStore(
            {"c": values, "t": np.zeros(values.size, dtype=np.int8)},
            support_sizes={"c": u2},
        )
        sampler = PrefixSampler(store, seed=2)
        sampler.joint_counts("t", "c", 1_000)
        sampler.marginal_counts("c", 1_000)  # read off the joint
        sampler.expect_joints([("t", "c")])
        sampler.marginal_counts("c", 3_000)
        assert ("c", "t") in sampler._held
        joint = sampler.joint_counts("t", "c", 3_000)
        rows = sampler.shuffled_prefix(3_000)
        reference = np.bincount(
            _reference_codes(values[rows], np.zeros(3_000, dtype=np.int8), 1),
            minlength=u2,
        )
        np.testing.assert_array_equal(joint.snapshot()["dense"], reference)
