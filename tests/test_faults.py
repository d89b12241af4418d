"""Tests for the fault-injection harness and retry-with-backoff."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exact import exact_entropies
from repro.core import swope_top_k_entropy
from repro.data.csv_io import load_csv
from repro.exceptions import DataFormatError, ParameterError
from repro.testing.faults import FlakyReader, FlakyStore, retry_with_backoff


@pytest.fixture()
def csv_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("color,flag\nred,0\nblue,1\nred,0\ngreen,1\nred,1\n")
    return path


@pytest.fixture()
def ragged_csv(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("color,flag\nred,0\nblue\ngreen,1,extra\nred,1\n")
    return path


class TestRetryWithBackoff:
    def test_recovers_within_retry_limit(self):
        calls = {"n": 0}
        sleeps: list[float] = []

        def flaky():
            calls["n"] += 1
            if calls["n"] <= 2:
                raise OSError("transient")
            return "ok"

        assert (
            retry_with_backoff(
                flaky, max_retries=3, base_delay_s=0.1, sleep=sleeps.append, rng=0
            )
            == "ok"
        )
        assert calls["n"] == 3
        assert len(sleeps) == 2
        # Exponential with jitter in [1, 1.5]: delay k is in
        # [0.1 * 2^k, 0.15 * 2^k].
        assert 0.1 <= sleeps[0] <= 0.15
        assert 0.2 <= sleeps[1] <= 0.3

    def test_raises_after_exhausting_retries(self):
        sleeps: list[float] = []

        def always_fails():
            raise OSError("still down")

        with pytest.raises(OSError, match="still down"):
            retry_with_backoff(
                always_fails, max_retries=2, base_delay_s=0.01, sleep=sleeps.append
            )
        assert len(sleeps) == 2

    def test_delay_capped_at_max(self):
        sleeps: list[float] = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] <= 4:
                raise OSError("transient")
            return None

        retry_with_backoff(
            flaky, max_retries=4, base_delay_s=1.0, max_delay_s=1.5,
            jitter=0.0, sleep=sleeps.append,
        )
        assert sleeps == [1.0, 1.5, 1.5, 1.5]

    def test_non_retryable_propagates_immediately(self):
        sleeps: list[float] = []

        def bad_format():
            raise DataFormatError("malformed, retrying cannot help")

        with pytest.raises(DataFormatError):
            retry_with_backoff(bad_format, max_retries=5, sleep=sleeps.append)
        assert sleeps == []  # not a single retry was attempted

    def test_max_elapsed_cap_stops_retrying_early(self):
        # Planned delays with jitter=0: 1.0, 2.0, 4.0. The second retry
        # would push cumulative planned sleep to 3.0 > 2.5, so only one
        # retry happens even though max_retries allows five.
        sleeps: list[float] = []
        calls = {"n": 0}

        def always_fails():
            calls["n"] += 1
            raise OSError("still down")

        with pytest.raises(OSError, match="still down"):
            retry_with_backoff(
                always_fails, max_retries=5, base_delay_s=1.0,
                jitter=0.0, max_elapsed_s=2.5, sleep=sleeps.append,
            )
        assert calls["n"] == 2
        assert sleeps == [1.0]

    def test_max_elapsed_cap_permits_retries_within_budget(self):
        sleeps: list[float] = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] <= 2:
                raise OSError("transient")
            return "ok"

        assert (
            retry_with_backoff(
                flaky, max_retries=5, base_delay_s=1.0,
                jitter=0.0, max_elapsed_s=10.0, sleep=sleeps.append,
            )
            == "ok"
        )
        assert sleeps == [1.0, 2.0]

    def test_jitter_scales_each_delay(self):
        # jitter=1.0 multiplies each delay by a uniform factor in
        # [1, 2]; a seeded rng makes the draw reproducible.
        sleeps: list[float] = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] <= 2:
                raise OSError("transient")
            return None

        retry_with_backoff(
            flaky, max_retries=3, base_delay_s=1.0, max_delay_s=8.0,
            jitter=1.0, sleep=sleeps.append, rng=42,
        )
        assert len(sleeps) == 2
        assert 1.0 <= sleeps[0] <= 2.0
        assert 2.0 <= sleeps[1] <= 4.0

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            retry_with_backoff(lambda: None, max_retries=-1)
        with pytest.raises(ParameterError):
            retry_with_backoff(lambda: None, jitter=2.0)
        with pytest.raises(ParameterError):
            retry_with_backoff(lambda: None, base_delay_s=-0.1)
        with pytest.raises(ParameterError):
            retry_with_backoff(lambda: None, max_elapsed_s=0.0)


class TestFlakyReaderStreaming:
    @staticmethod
    def assert_same_columns(store, csv_file):
        clean, _ = load_csv(csv_file)
        for name in clean.attributes:
            assert np.array_equal(store.column(name), clean.column(name))

    def test_recovers_from_open_failures(self, csv_file):
        reader = FlakyReader(fail_times=2, sleep=lambda _: None)
        store, _ = load_csv(
            csv_file, opener=reader, max_retries=3, retry_base_delay_s=0.0
        )
        assert reader.attempts == 3
        assert reader.failures_injected == 2
        self.assert_same_columns(store, csv_file)

    def test_recovers_from_mid_stream_failure(self, csv_file):
        # The nastier mode: the failing attempt dies after 2 rows. The
        # retried load must not double-count the rows already consumed.
        reader = FlakyReader(fail_times=1, fail_after_rows=2, sleep=lambda _: None)
        store, _ = load_csv(
            csv_file, opener=reader, max_retries=2, retry_base_delay_s=0.0
        )
        assert reader.failures_injected == 1
        assert store.num_rows == 5
        self.assert_same_columns(store, csv_file)

    def test_exhausted_retries_surface_oserror(self, csv_file):
        reader = FlakyReader(fail_times=5)
        with pytest.raises(OSError):
            load_csv(csv_file, opener=reader, max_retries=2, retry_base_delay_s=0.0)
        assert reader.attempts == 3

    def test_format_errors_are_not_retried(self, ragged_csv):
        reader = FlakyReader(fail_times=0)
        with pytest.raises(DataFormatError):
            load_csv(ragged_csv, opener=reader, max_retries=5, retry_base_delay_s=0.0)
        assert reader.attempts == 1  # surfaced unchanged, no retry

    def test_load_csv_with_retries(self, csv_file):
        reader = FlakyReader(fail_times=1)
        store, _ = load_csv(
            csv_file, opener=reader, max_retries=1, retry_base_delay_s=0.0
        )
        assert store.num_rows == 5
        assert set(store.attributes) == {"color", "flag"}

    def test_load_csv_without_retries_fails_fast(self, csv_file):
        with pytest.raises(OSError):
            load_csv(csv_file, opener=FlakyReader(fail_times=1))


class TestFlakyStore:
    def test_transient_column_failures_then_success(self, small_store):
        flaky = FlakyStore(small_store, fail_times=2)
        read = retry_with_backoff(
            lambda: flaky.column("wide"),
            max_retries=3,
            base_delay_s=0.0,
            sleep=lambda _: None,
        )
        assert np.array_equal(read, small_store.column("wide"))
        assert flaky.failures_injected == 2
        assert flaky.reads == 3

    def test_delegates_metadata(self, small_store):
        flaky = FlakyStore(small_store)
        assert flaky.num_rows == small_store.num_rows
        assert flaky.attributes == small_store.attributes
        assert flaky.support_size("wide") == small_store.support_size("wide")
        assert "wide" in flaky

    def test_latency_injection_uses_sleep(self, small_store):
        sleeps: list[float] = []
        flaky = FlakyStore(small_store, latency_s=0.25, sleep=sleeps.append)
        flaky.column("wide")
        flaky.column("narrow")
        assert sleeps == [0.25, 0.25]

    def test_query_runs_over_recovered_store(self, small_store):
        # Once the transient failures are exhausted the wrapper is a
        # drop-in store: a full SWOPE query runs and matches the oracle.
        flaky = FlakyStore(small_store, fail_times=0)
        result = swope_top_k_entropy(flaky, 1, epsilon=0.2, seed=0)
        exact = exact_entropies(small_store)
        top = result.estimates[0]
        assert top.lower <= exact[top.attribute] <= top.upper
