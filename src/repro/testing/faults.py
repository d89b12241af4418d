"""Fault injection for I/O paths, and the retry helper that survives it.

A production entropy service reads columns and streams CSVs from storage
that occasionally hiccups: NFS timeouts, container volume remounts,
object-store throttling. This module provides

* :func:`retry_with_backoff` — bounded exponential backoff with jitter
  around any callable, retrying only a configurable set of transient
  exception types. :func:`repro.data.csv_io.load_csv` uses it when
  asked to retry.
* :class:`FlakyReader` — a file *opener* that fails the first few
  attempts with a transient ``OSError`` (at open, or mid-stream after a
  configurable number of rows) and can inject per-line latency. Pass it
  as ``opener=`` to the CSV reader to simulate flaky storage.
* :class:`FlakyStore` — a :class:`~repro.data.column_store.ColumnStore`
  wrapper whose column reads fail transiently and/or run slow, for
  exercising query-level retry and deadline budgets.

All failure schedules are deterministic (fail the first ``fail_times``
attempts, then succeed) so tests stay reproducible without seeding.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.exceptions import ParameterError

__all__ = ["FlakyReader", "FlakyStore", "retry_with_backoff"]


def retry_with_backoff(
    fn: Callable[[], object],
    *,
    max_retries: int = 3,
    base_delay_s: float = 0.05,
    max_delay_s: float = 2.0,
    jitter: float = 0.5,
    max_elapsed_s: float | None = None,
    retryable: tuple[type[BaseException], ...] = (OSError,),
    sleep: Callable[[float], None] = time.sleep,
    rng: int | np.random.Generator | None = None,
):
    """Call ``fn`` with bounded exponential backoff on transient errors.

    Parameters
    ----------
    fn:
        Zero-argument callable to execute; its return value is returned.
    max_retries:
        Retries *after* the first attempt (``max_retries=3`` means up to
        4 calls). ``0`` disables retrying.
    base_delay_s:
        Delay before the first retry; doubled on each further retry.
    max_delay_s:
        Cap on the pre-jitter delay.
    jitter:
        Fraction in ``[0, 1]``: each delay is multiplied by a uniform
        factor in ``[1, 1 + jitter]`` to decorrelate concurrent
        retriers.
    max_elapsed_s:
        Overall time cap: a retry whose pre-jitter delay would push the
        elapsed time past this bound is not attempted — the last error
        propagates instead. Elapsed time is the larger of the measured
        wall clock and the cumulative *planned* delays, so tests that
        inject a recording ``sleep`` exercise the cap deterministically.
        ``None`` (default) means no cap.
    retryable:
        Exception types that trigger a retry. Anything else — notably
        :class:`~repro.exceptions.DataFormatError` for malformed input,
        which no retry can fix — propagates unchanged on the spot.
    sleep:
        Injection point for tests (defaults to :func:`time.sleep`).
    rng:
        Seed or generator for the jitter draw.

    Raises
    ------
    The last retryable exception, once ``max_retries`` is exhausted or
    ``max_elapsed_s`` would be exceeded.
    """
    if max_retries < 0:
        raise ParameterError(f"max_retries must be >= 0, got {max_retries}")
    if base_delay_s < 0 or max_delay_s < 0:
        raise ParameterError("backoff delays must be >= 0")
    if not 0.0 <= jitter <= 1.0:
        raise ParameterError(f"jitter must be in [0, 1], got {jitter}")
    if max_elapsed_s is not None and max_elapsed_s <= 0:
        raise ParameterError(f"max_elapsed_s must be > 0, got {max_elapsed_s}")
    generator = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    started = time.perf_counter()
    planned_sleep = 0.0
    attempt = 0
    while True:
        try:
            return fn()
        except retryable:
            attempt += 1
            if attempt > max_retries:
                raise
            delay = min(max_delay_s, base_delay_s * 2.0 ** (attempt - 1))
            if max_elapsed_s is not None:
                elapsed = max(time.perf_counter() - started, planned_sleep)
                if elapsed + delay > max_elapsed_s:
                    raise
            planned_sleep += delay
            sleep(delay * (1.0 + jitter * float(generator.random())))


class _FlakyHandle:
    """File-like wrapper that injects latency and mid-stream failures."""

    def __init__(
        self,
        handle,
        *,
        fail_after_rows: int | None,
        latency_s: float,
        make_error: Callable[[], OSError],
        sleep: Callable[[float], None],
    ) -> None:
        self._handle = handle
        self._fail_after_rows = fail_after_rows
        self._latency_s = latency_s
        self._make_error = make_error
        self._sleep = sleep
        self._rows_read = 0

    def __enter__(self) -> "_FlakyHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self._handle.close()

    def close(self) -> None:
        self._handle.close()

    def __iter__(self) -> Iterator[str]:
        return self

    def __next__(self) -> str:
        if (
            self._fail_after_rows is not None
            and self._rows_read >= self._fail_after_rows
        ):
            raise self._make_error()
        if self._latency_s > 0.0:
            self._sleep(self._latency_s)
        line = next(self._handle)
        self._rows_read += 1
        return line


class FlakyReader:
    """A CSV opener that fails transiently, for fault-injection tests.

    The reader fails the first ``fail_times`` open attempts and then
    behaves normally, modelling a transient storage outage that a
    bounded retry rides out. With ``fail_after_rows`` set, failing
    attempts open successfully but raise mid-stream after that many
    lines instead — the nastier partial-read failure mode.

    Parameters
    ----------
    fail_times:
        Number of initial attempts to fail (0 = never fail).
    fail_after_rows:
        ``None`` (default) fails at open; an integer ``r`` fails after
        ``r`` lines have been read from the failing attempt's handle.
    latency_s:
        Injected delay per line read (on every attempt), for exercising
        deadline budgets.
    message:
        Message of the injected ``OSError``.
    sleep:
        Injection point for the latency sleep (tests pass a recorder).

    Use as the ``opener=`` argument of
    :func:`~repro.data.csv_io.load_csv`:

    >>> reader = FlakyReader(fail_times=2)                   # doctest: +SKIP
    >>> load_csv(path, opener=reader, max_retries=3)
    """

    def __init__(
        self,
        *,
        fail_times: int = 1,
        fail_after_rows: int | None = None,
        latency_s: float = 0.0,
        message: str = "injected transient read failure",
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if fail_times < 0:
            raise ParameterError(f"fail_times must be >= 0, got {fail_times}")
        if fail_after_rows is not None and fail_after_rows < 0:
            raise ParameterError(
                f"fail_after_rows must be >= 0, got {fail_after_rows}"
            )
        if latency_s < 0:
            raise ParameterError(f"latency_s must be >= 0, got {latency_s}")
        self._remaining_failures = fail_times
        self._fail_after_rows = fail_after_rows
        self._latency_s = latency_s
        self._message = message
        self._sleep = sleep
        self.attempts = 0
        self.failures_injected = 0

    def _make_error(self) -> OSError:
        self.failures_injected += 1
        return OSError(self._message)

    def __call__(self, path: str | Path) -> _FlakyHandle:
        self.attempts += 1
        failing = self._remaining_failures > 0
        if failing:
            self._remaining_failures -= 1
            if self._fail_after_rows is None:
                raise self._make_error()
        return _FlakyHandle(
            Path(path).open(newline=""),
            fail_after_rows=self._fail_after_rows if failing else None,
            latency_s=self._latency_s,
            make_error=self._make_error,
            sleep=self._sleep,
        )


class FlakyStore:
    """ColumnStore wrapper injecting transient failures into column reads.

    The first ``fail_times`` column reads (:meth:`column`, and the
    sampler's :meth:`layout_column`) raise ``OSError``;
    later calls succeed, optionally after ``latency_s`` of injected
    delay per read. Everything else delegates to the wrapped store, so a
    ``FlakyStore`` can stand in anywhere a
    :class:`~repro.data.column_store.ColumnStore` is accepted —
    samplers, queries, executors.

    Wrap individual reads with :func:`retry_with_backoff` to build
    retrying access, or run a deadline-budgeted query over a
    high-latency store to exercise graceful degradation.
    """

    def __init__(
        self,
        store,
        *,
        fail_times: int = 0,
        latency_s: float = 0.0,
        message: str = "injected transient column-read failure",
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if fail_times < 0:
            raise ParameterError(f"fail_times must be >= 0, got {fail_times}")
        if latency_s < 0:
            raise ParameterError(f"latency_s must be >= 0, got {latency_s}")
        self._store = store
        self._remaining_failures = fail_times
        self._latency_s = latency_s
        self._message = message
        self._sleep = sleep
        self.reads = 0
        self.failures_injected = 0

    # -- fault-injected reads ------------------------------------------
    def _inject(self) -> None:
        self.reads += 1
        if self._remaining_failures > 0:
            self._remaining_failures -= 1
            self.failures_injected += 1
            raise OSError(self._message)
        if self._latency_s > 0.0:
            self._sleep(self._latency_s)

    def column(self, name: str):
        self._inject()
        # Fault-injection wrapper: this *is* the read it instruments.
        return self._store.column(name)

    def column_block(self, name: str, rows):
        # Routed through self.column() so block reads share the same
        # failure/latency injection as whole-handle reads.
        return self.column(name)[rows]

    def layout_column(self, name: str, start: int, stop: int, layout_seed=None):
        # The sampler's reads: injected like every other column read.
        self._inject()
        return self._store.layout_column(name, start, stop, layout_seed)

    # -- transparent delegation ----------------------------------------
    @property
    def attributes(self):
        return self._store.attributes

    @property
    def num_rows(self) -> int:
        return self._store.num_rows

    @property
    def num_attributes(self) -> int:
        return self._store.num_attributes

    def support_size(self, name: str) -> int:
        return self._store.support_size(name)

    def value_counts(self, name: str):
        return self._store.value_counts(name)

    def __contains__(self, name: object) -> bool:
        return name in self._store

    def __getattr__(self, name: str):
        return getattr(self._store, name)
