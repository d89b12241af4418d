"""Shared fixtures for the test suite.

All fixtures are deterministic: fixed seeds, fixed shapes. Sizes are kept
small (thousands of rows) so the full suite runs in seconds; the
statistical-guarantee tests build their own, slightly larger, stores.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.column_store import ColumnStore


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.jsonl from the current engine instead"
             " of comparing against them",
    )


@pytest.fixture
def update_golden(request: pytest.FixtureRequest) -> bool:
    """True when the run should regenerate golden trace files."""
    return bool(request.config.getoption("--update-golden"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_store(rng: np.random.Generator) -> ColumnStore:
    """4 columns x 5000 rows with clearly separated entropies.

    Exact entropies (approximately): wide ~ 7.6, medium ~ 5.6,
    narrow ~ 2.0, skewed ~ 0.3 — well separated so exact rankings are
    stable across seeds.
    """
    n = 5000
    return ColumnStore(
        {
            "wide": rng.integers(0, 200, n),
            "medium": rng.integers(0, 50, n),
            "narrow": rng.integers(0, 4, n),
            "skewed": (rng.random(n) < 0.05).astype(np.int64),
        }
    )


@pytest.fixture
def tiny_store() -> ColumnStore:
    """A 8-row store with hand-checkable counts."""
    return ColumnStore(
        {
            "a": np.array([0, 0, 1, 1, 2, 2, 3, 3]),
            "b": np.array([0, 0, 0, 0, 1, 1, 1, 1]),
            "c": np.array([0, 0, 0, 0, 0, 0, 0, 0]),
        }
    )


@pytest.fixture
def correlated_store(rng: np.random.Generator) -> ColumnStore:
    """A store with a target column and candidates of decreasing MI.

    ``copy`` is an exact copy of ``target`` (MI = H(target)); ``noisy``
    agrees 70% of the time; ``independent`` is drawn independently.
    """
    n = 6000
    target = rng.integers(0, 8, n)
    keep = rng.random(n) < 0.7
    noisy = np.where(keep, target, rng.integers(0, 8, n))
    return ColumnStore(
        {
            "target": target,
            "copy": target.copy(),
            "noisy": noisy,
            "independent": rng.integers(0, 8, n),
        }
    )


class ShardedBackend:
    """A non-default :class:`~repro.data.backends.CountingBackend`.

    Counts each batch as two row shards and sums the shard histograms —
    the merge a row-parallel backend performs — so tests can show that
    the engine depends only on the counts a backend returns, through
    every ``backend=`` keyword that accepts an instance.
    """

    name = "sharded"

    def count_columns(self, columns, support_sizes, rows):
        if isinstance(rows, slice):
            rows = np.arange(rows.start or 0, rows.stop)
        half = len(rows) // 2
        return [
            np.bincount(column[rows[:half]], minlength=support)
            + np.bincount(column[rows[half:]], minlength=support)
            for column, support in zip(columns, support_sizes)
        ]


@pytest.fixture
def sharded_backend() -> ShardedBackend:
    return ShardedBackend()
