"""Unit tests for :mod:`repro.core.schedule`."""

from __future__ import annotations

import math

import pytest

from repro.core.schedule import (
    MIN_INITIAL_SAMPLE,
    SampleSchedule,
    initial_sample_size,
    max_iterations,
)
from repro.exceptions import ParameterError


class TestInitialSampleSize:
    def test_matches_paper_formula(self):
        n, h, pf, u = 1_000_000, 100, 1e-6, 1000
        log2n = math.log2(n)
        expected = math.ceil(
            math.log(h * log2n / pf) * log2n**2 / math.log2(u) ** 2
        )
        assert initial_sample_size(n, h, pf, u) == expected

    def test_clamped_below(self):
        # Huge u_max makes the formula tiny; the floor kicks in.
        assert initial_sample_size(10_000, 2, 0.5, 2**40) == MIN_INITIAL_SAMPLE

    def test_clamped_to_population(self):
        assert initial_sample_size(20, 100, 1e-9, 2) == 20

    def test_constant_dataset_u_max_clamped(self):
        # u_max = 1 would divide by log2(1) = 0.
        assert initial_sample_size(1000, 5, 0.01, 1) >= MIN_INITIAL_SAMPLE

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            initial_sample_size(0, 5, 0.01, 10)
        with pytest.raises(ParameterError):
            initial_sample_size(100, 0, 0.01, 10)
        with pytest.raises(ParameterError):
            initial_sample_size(100, 5, 0.0, 10)

    @pytest.mark.parametrize("failure", [5e-324, 1e-310, 1e-307])
    def test_failure_probability_too_small_for_a_float(self, failure):
        # h·log2(N)/p_f overflows: a ParameterError, not an OverflowError
        with pytest.raises(ParameterError, match="too small"):
            initial_sample_size(1000, 5, failure, 10)

    def test_tiny_failure_probability_that_fits_a_float(self):
        assert initial_sample_size(1000, 5, 1e-300, 10) == 1000


class TestMaxIterations:
    def test_formula(self):
        assert max_iterations(1024, 16) == math.ceil(math.log2(1024 / 16)) + 1

    def test_initial_equals_population(self):
        assert max_iterations(1000, 1000) == 1

    def test_invalid(self):
        with pytest.raises(ParameterError):
            max_iterations(100, 0)
        with pytest.raises(ParameterError):
            max_iterations(100, 101)


class TestGeometricSchedule:
    def test_doubling_ends_at_population(self):
        schedule = SampleSchedule(population_size=1000, initial_size=100)
        assert schedule.sizes == (100, 200, 400, 800, 1000)

    def test_strictly_increasing(self):
        schedule = SampleSchedule(population_size=100_000, initial_size=16)
        sizes = schedule.sizes
        assert all(a < b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] == 100_000

    def test_single_step_when_initial_is_population(self):
        schedule = SampleSchedule(population_size=500, initial_size=500)
        assert schedule.sizes == (500,)
        assert schedule.num_iterations == 1

    def test_custom_growth_factor(self):
        schedule = SampleSchedule(
            population_size=1000, initial_size=100, growth_factor=4.0
        )
        assert schedule.sizes == (100, 400, 1000)

    def test_fractional_growth_always_advances(self):
        schedule = SampleSchedule(
            population_size=10, initial_size=2, growth_factor=1.1
        )
        assert schedule.sizes[-1] == 10
        assert all(a < b for a, b in zip(schedule.sizes, schedule.sizes[1:]))

    def test_growth_factor_must_exceed_one(self):
        with pytest.raises(ParameterError):
            SampleSchedule(population_size=100, initial_size=10, growth_factor=1.0)

    def test_invalid_initial(self):
        with pytest.raises(ParameterError):
            SampleSchedule(population_size=100, initial_size=0)
        with pytest.raises(ParameterError):
            SampleSchedule(population_size=100, initial_size=101)


class TestLinearSchedule:
    def test_linear_batches(self):
        schedule = SampleSchedule(
            population_size=1000, initial_size=300, mode="linear"
        )
        assert schedule.sizes == (300, 600, 900, 1000)

    def test_unknown_mode(self):
        with pytest.raises(ParameterError):
            SampleSchedule(population_size=100, initial_size=10, mode="magic")


class TestFailureBudget:
    def test_per_round_failure_sums_to_total(self):
        schedule = SampleSchedule(population_size=1000, initial_size=100)
        pf = 0.01
        per = schedule.per_round_failure(pf, num_attributes=7)
        assert per * schedule.num_iterations * 7 == pytest.approx(pf)

    def test_mi_budget_uses_three_bounds(self):
        schedule = SampleSchedule(population_size=1000, initial_size=100)
        one = schedule.per_round_failure(0.01, 7, bounds_per_attribute=1)
        three = schedule.per_round_failure(0.01, 7, bounds_per_attribute=3)
        assert three == pytest.approx(one / 3)

    def test_invalid_budget_inputs(self):
        schedule = SampleSchedule(population_size=1000, initial_size=100)
        with pytest.raises(ParameterError):
            schedule.per_round_failure(0.0, 5)
        with pytest.raises(ParameterError):
            schedule.per_round_failure(0.1, 0)
        with pytest.raises(ParameterError):
            schedule.per_round_failure(0.1, 5, bounds_per_attribute=0)


class TestForQuery:
    def test_uses_paper_m0_by_default(self):
        schedule = SampleSchedule.for_query(100_000, 50, 0.001, 100)
        assert schedule.initial_size == initial_sample_size(100_000, 50, 0.001, 100)

    def test_initial_override(self):
        schedule = SampleSchedule.for_query(1000, 5, 0.01, 10, initial_size=128)
        assert schedule.initial_size == 128

    def test_override_clamped_to_population(self):
        schedule = SampleSchedule.for_query(100, 5, 0.01, 10, initial_size=5000)
        assert schedule.initial_size == 100
