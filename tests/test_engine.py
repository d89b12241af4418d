"""Unit tests for :mod:`repro.core.engine` (providers + generic loops)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import (
    EntropyScoreProvider,
    MutualInformationScoreProvider,
    default_failure_probability,
    validate_epsilon,
    validate_failure_probability,
    validate_k,
    validate_threshold,
)
from repro.core.estimators import entropy_from_counts
from repro.data.column_store import ColumnStore
from repro.data.sampling import PrefixSampler
from repro.exceptions import ParameterError, SchemaError


class TestValidation:
    def test_epsilon_domain(self):
        assert validate_epsilon(0.5) == 0.5
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ParameterError):
                validate_epsilon(bad)

    def test_failure_probability_domain(self):
        assert validate_failure_probability(0.01) == 0.01
        for bad in (0.0, 1.0):
            with pytest.raises(ParameterError):
                validate_failure_probability(bad)

    def test_k_domain(self):
        assert validate_k(3) == 3
        for bad in (0, -1, 2.5):
            with pytest.raises(ParameterError):
                validate_k(bad)

    def test_threshold_domain(self):
        assert validate_threshold(0.0) == 0.0
        with pytest.raises(ParameterError):
            validate_threshold(-0.1)

    def test_default_failure_probability_is_one_over_n(self):
        assert default_failure_probability(1000) == 0.001

    def test_default_failure_probability_floored_for_tiny_n(self):
        assert default_failure_probability(1) == 0.5


class TestEntropyProvider:
    def test_interval_consistent_with_counts(self, small_store):
        sampler = PrefixSampler(small_store, seed=0)
        provider = EntropyScoreProvider(sampler, 0.01)
        iv = provider.intervals(["wide"], 1000)["wide"]
        counts = PrefixSampler(small_store, seed=0).marginal_counts("wide", 1000)
        assert iv.estimate == pytest.approx(entropy_from_counts(counts))
        assert iv.lower <= iv.estimate <= iv.upper

    def test_interval_tightens_with_sample_size(self, small_store):
        sampler = PrefixSampler(small_store, seed=0)
        provider = EntropyScoreProvider(sampler, 0.01)
        wide = provider.intervals(["wide"], 200)["wide"]
        narrow = provider.intervals(["wide"], 4000)["wide"]
        assert narrow.width < wide.width

    def test_interval_exact_at_full_sample(self, small_store):
        sampler = PrefixSampler(small_store, seed=0)
        provider = EntropyScoreProvider(sampler, 0.01)
        iv = provider.intervals(["narrow"], small_store.num_rows)["narrow"]
        exact = entropy_from_counts(small_store.value_counts("narrow"))
        assert iv.lower == pytest.approx(exact)
        assert iv.upper == pytest.approx(exact)


class TestMIProvider:
    def test_target_interval_cached_per_sample_size(self, correlated_store):
        sampler = PrefixSampler(correlated_store, seed=0)
        provider = MutualInformationScoreProvider(sampler, "target", 0.001)
        provider.intervals(["noisy"], 500)["noisy"]
        cost = sampler.cells_scanned
        # A second candidate at the same sample size must not re-read the
        # target column.
        provider.intervals(["independent"], 500)["independent"]
        extra = sampler.cells_scanned - cost
        assert extra == 500 + 2 * 500  # candidate marginal + joint pair

    def test_interval_brackets_sample_mi(self, correlated_store):
        sampler = PrefixSampler(correlated_store, seed=0)
        provider = MutualInformationScoreProvider(sampler, "target", 0.001)
        iv = provider.intervals(["copy"], 2000)["copy"]
        assert iv.lower <= iv.estimate <= iv.upper

    def test_candidate_equal_target_rejected(self, correlated_store):
        sampler = PrefixSampler(correlated_store, seed=0)
        provider = MutualInformationScoreProvider(sampler, "target", 0.001)
        with pytest.raises(SchemaError):
            provider.intervals(["target"], 100)["target"]

    def test_unknown_target_rejected(self, correlated_store):
        sampler = PrefixSampler(correlated_store, seed=0)
        with pytest.raises(SchemaError):
            MutualInformationScoreProvider(sampler, "ghost", 0.001)

    def test_exact_at_full_sample(self, correlated_store):
        n = correlated_store.num_rows
        sampler = PrefixSampler(correlated_store, seed=0)
        provider = MutualInformationScoreProvider(sampler, "target", 0.001)
        iv = provider.intervals(["copy"], n)["copy"]
        h_target = entropy_from_counts(correlated_store.value_counts("target"))
        assert iv.lower == pytest.approx(h_target)
        assert iv.upper == pytest.approx(h_target)
