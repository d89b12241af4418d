"""Unit tests for :mod:`repro.core.estimators`."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimators import (
    _entropies_from_trusted_counts,
    _entropy_from_trusted_counts,
    entropy_from_counts,
    entropy_from_probabilities,
    joint_entropy_from_counter,
    mutual_information_from_counts,
)
from repro.data.joint import JointCounter
from repro.exceptions import ParameterError


class TestEntropyFromCounts:
    def test_uniform_counts(self):
        assert entropy_from_counts(np.array([5, 5, 5, 5])) == pytest.approx(2.0)

    def test_single_value_is_zero(self):
        assert entropy_from_counts(np.array([10])) == 0.0

    def test_zeros_ignored(self):
        with_zeros = entropy_from_counts(np.array([3, 0, 0, 7]))
        without = entropy_from_counts(np.array([3, 7]))
        assert with_zeros == pytest.approx(without)

    def test_known_biased_coin(self):
        # H(0.25) = 0.25 log2 4 + 0.75 log2 (4/3)
        expected = 0.25 * 2 + 0.75 * math.log2(4 / 3)
        assert entropy_from_counts(np.array([1, 3])) == pytest.approx(expected)

    def test_empty_counts(self):
        assert entropy_from_counts(np.array([], dtype=int)) == 0.0

    def test_total_consistency_check(self):
        with pytest.raises(ParameterError, match="declared"):
            entropy_from_counts(np.array([2, 2]), total=5)

    def test_explicit_total_accepted(self):
        assert entropy_from_counts(np.array([2, 2]), total=4) == pytest.approx(1.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ParameterError, match="non-negative"):
            entropy_from_counts(np.array([1, -1]))

    def test_2d_counts_rejected(self):
        with pytest.raises(ParameterError, match="1-D"):
            entropy_from_counts(np.zeros((2, 2), dtype=int))

    def test_never_negative(self):
        assert entropy_from_counts(np.array([1])) >= 0.0

    def test_scale_invariance(self):
        a = entropy_from_counts(np.array([1, 2, 3]))
        b = entropy_from_counts(np.array([10, 20, 30]))
        assert a == pytest.approx(b)


class TestEntropyFromProbabilities:
    def test_uniform(self):
        assert entropy_from_probabilities(np.full(8, 1 / 8)) == pytest.approx(3.0)

    def test_point_mass(self):
        assert entropy_from_probabilities(np.array([1.0, 0.0])) == 0.0

    def test_not_normalised_rejected(self):
        with pytest.raises(ParameterError, match="sum to 1"):
            entropy_from_probabilities(np.array([0.5, 0.4]))

    def test_negative_rejected(self):
        with pytest.raises(ParameterError, match="non-negative"):
            entropy_from_probabilities(np.array([1.2, -0.2]))

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            entropy_from_probabilities(np.array([]))


class TestJointEntropyAndMI:
    def make_joint(self, a, b, u1, u2):
        counter = JointCounter(u1, u2)
        counter.update(np.asarray(a), np.asarray(b))
        return counter

    def test_joint_entropy_of_independent_uniform(self):
        # all four (a, b) combinations equally often -> H = 2 bits
        a = np.array([0, 0, 1, 1])
        b = np.array([0, 1, 0, 1])
        counter = self.make_joint(a, b, 2, 2)
        assert joint_entropy_from_counter(counter) == pytest.approx(2.0)

    def test_mi_of_identical_columns_is_their_entropy(self):
        a = np.array([0, 1, 2, 3] * 5)
        counter = self.make_joint(a, a, 4, 4)
        counts = np.bincount(a, minlength=4)
        mi = mutual_information_from_counts(counts, counts, counter)
        assert mi == pytest.approx(2.0)

    def test_mi_of_independent_columns_is_near_zero(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 4, 50_000)
        b = rng.integers(0, 4, 50_000)
        counter = self.make_joint(a, b, 4, 4)
        mi = mutual_information_from_counts(
            np.bincount(a, minlength=4), np.bincount(b, minlength=4), counter
        )
        assert 0.0 <= mi < 0.01

    def test_mi_total_mismatch_rejected(self):
        a = np.array([0, 1])
        counter = self.make_joint(a, a, 2, 2)
        with pytest.raises(ParameterError, match="disagree"):
            mutual_information_from_counts(
                np.array([1, 1]), np.array([1, 1, 1]), counter
            )

    def test_mi_never_negative(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 3, 100)
        b = rng.integers(0, 3, 100)
        counter = self.make_joint(a, b, 3, 3)
        mi = mutual_information_from_counts(
            np.bincount(a, minlength=3), np.bincount(b, minlength=3), counter
        )
        assert mi >= 0.0


@st.composite
def _count_vectors(draw):
    """One shared total and count vectors, some padded with zeros."""
    total = draw(st.integers(1, 10**7))
    vectors = []
    for _ in range(draw(st.integers(1, 8))):
        body = draw(st.lists(st.integers(0, total), max_size=24))
        lead = draw(st.integers(0, 3))
        trail = draw(st.integers(0, 3))
        vectors.append(
            np.array([0] * lead + body + [0] * trail, dtype=np.int64)
        )
    return total, vectors


class TestBatchedTrustedEntropies:
    """The batched helper the engine calls must equal the scalar one."""

    @settings(max_examples=200, deadline=None)
    @given(_count_vectors())
    def test_bitwise_equal_to_scalar_helper(self, case):
        total, vectors = case
        batched = _entropies_from_trusted_counts(vectors, total)
        scalar = [_entropy_from_trusted_counts(v, total) for v in vectors]
        assert [x.hex() for x in batched] == [x.hex() for x in scalar]

    def test_zero_total_gives_zeros(self):
        vectors = [np.zeros(3, dtype=np.int64), np.zeros(0, dtype=np.int64)]
        assert _entropies_from_trusted_counts(vectors, 0) == [0.0, 0.0]
