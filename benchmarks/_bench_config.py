"""Shared configuration for the benchmark suite.

Every figure bench runs over the same dataset set, scale, and ground-truth
cache, controlled by environment variables so a full-fat replication run
is one command away:

* ``REPRO_BENCH_SCALE`` — row-count multiplier for the registry datasets
  (default 0.2: cdc 60k, enem 100k rows — a single-core-friendly suite).
  Use ``1.0`` for the EXPERIMENTS.md reference numbers.
* ``REPRO_BENCH_DATASETS`` — comma-separated registry keys
  (default ``cdc,enem``; the paper runs all four: ``cdc,hus,pus,enem``).

Benchmarks record, via ``benchmark.extra_info``, the paper's companion
metrics next to wall-clock: cells scanned, sample fraction, and accuracy —
so one run regenerates both the (a) time panels and the (b) accuracy
panels of each figure.
"""

from __future__ import annotations

import os

from repro.experiments.runner import GroundTruthCache
from repro.synth.datasets import SyntheticDataset, load_dataset

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.2"))
DATASET_KEYS = [
    key
    for key in os.environ.get("REPRO_BENCH_DATASETS", "cdc,enem").split(",")
    if key
]

_truth = GroundTruthCache()


def dataset(key: str) -> SyntheticDataset:
    """Load (memoised) one registry dataset at the bench scale."""
    return load_dataset(key, scale=SCALE)


def truth() -> GroundTruthCache:
    """The session-wide exact-score cache."""
    return _truth


def record(benchmark, outcome) -> None:
    """Attach the paper's companion metrics to a benchmark entry."""
    benchmark.extra_info["cells_scanned"] = int(outcome.cells_scanned)
    benchmark.extra_info["sample_fraction"] = round(outcome.sample_fraction, 4)
    benchmark.extra_info["accuracy"] = round(outcome.accuracy, 4)
    for key, value in outcome.extra.items():
        benchmark.extra_info[key] = round(value, 4)
