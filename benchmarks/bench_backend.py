"""Batched-core benchmark: batched scoring vs the per-attribute path.

Times the adaptive engine's per-iteration scoring sweep — counts,
entropies, and confidence intervals for every live attribute at each
sample size of the paper's doubling schedule — two ways:

* ``scalar`` — the pre-refactor per-attribute path: one
  ``marginal_counts`` / ``entropy_from_counts`` / ``entropy_interval``
  chain per attribute per iteration (λ and bias recomputed every call);
* ``batched-numpy`` — the batched path the engine now uses
  (:meth:`ScoreProvider.intervals`) on the default backend.

The sampler (whose shuffle is identical before and after the refactor)
is constructed outside the timed region; what is measured is exactly
the code the refactor replaced. Both paths produce bit-identical
intervals — verified here on every run before timing.

Output is a pytest-benchmark-shaped JSON dump (``BENCH_backend.json``
at the repo root by default) that ``scripts/bench_report.py`` accepts:

    python benchmarks/bench_backend.py
    python scripts/bench_report.py BENCH_backend.json
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.core.bounds import (
    entropy_interval,
    joint_entropy_interval,
    mutual_information_interval,
)
from repro.core.engine import (
    EntropyScoreProvider,
    MutualInformationScoreProvider,
)
from repro.core.estimators import entropy_from_counts, joint_entropy_from_counter
from repro.core.schedule import initial_sample_size
from repro.data.column_store import ColumnStore
from repro.durability.atomic import atomic_write_text
from repro.data.sampling import PrefixSampler

#: Wide workload of the issue's acceptance criterion: h >= 64, N >= 10^6.
NUM_ATTRIBUTES = 64
NUM_ROWS = 1_000_000
SUPPORT_SIZE = 32
SEED = 11
SAMPLER_SEED = 7
FAILURE_PROBABILITY = 0.01
NUM_ITERATIONS = 5
ENTROPY_REPS = 30
MI_REPS = 12


def build_store() -> tuple[ColumnStore, list[str], str]:
    rng = np.random.default_rng(SEED)
    columns = {
        f"a{i}": rng.integers(0, SUPPORT_SIZE, size=NUM_ROWS)
        for i in range(NUM_ATTRIBUTES)
    }
    columns["target"] = rng.integers(0, SUPPORT_SIZE, size=NUM_ROWS)
    store = ColumnStore(columns)
    return store, [f"a{i}" for i in range(NUM_ATTRIBUTES)], "target"


def doubling_schedule(store: ColumnStore) -> list[int]:
    """The engine's own schedule: M0 from the paper's law, then doubling."""
    m = initial_sample_size(
        store.num_rows,
        NUM_ATTRIBUTES,
        FAILURE_PROBABILITY,
        SUPPORT_SIZE,
    )
    schedule = []
    for _ in range(NUM_ITERATIONS):
        schedule.append(min(m, store.num_rows))
        m *= 2
    return schedule


# ----------------------------------------------------------------------
# The three entropy sweeps
# ----------------------------------------------------------------------
def scalar_entropy_sweep(store, names, schedule, p):
    """Pre-refactor per-attribute scoring: one chain per attribute."""
    sampler = PrefixSampler(store, seed=SAMPLER_SEED)
    n = store.num_rows

    def sweep():
        out = {}
        for m in schedule:
            for a in names:
                counts = sampler.marginal_counts(a, m)
                h_hat = entropy_from_counts(counts, m)
                out[a] = entropy_interval(h_hat, store.support_size(a), m, n, p)
        return out

    return sweep


def batched_entropy_sweep(store, names, schedule, p, backend):
    sampler = PrefixSampler(store, seed=SAMPLER_SEED, backend=backend)
    provider = EntropyScoreProvider(sampler, p)

    def sweep():
        out = {}
        for m in schedule:
            out = provider.intervals(names, m)
        return dict(out)

    return sweep


# ----------------------------------------------------------------------
# The three MI sweeps
# ----------------------------------------------------------------------
def scalar_mi_sweep(store, names, target, schedule, p):
    sampler = PrefixSampler(store, seed=SAMPLER_SEED)
    n = store.num_rows
    u_t = store.support_size(target)

    def sweep():
        out = {}
        for m in schedule:
            t_counts = sampler.marginal_counts(target, m)
            t_iv = entropy_interval(
                entropy_from_counts(t_counts, m), u_t, m, n, p
            )
            for a in names:
                counts = sampler.marginal_counts(a, m)
                c_iv = entropy_interval(
                    entropy_from_counts(counts, m), store.support_size(a), m, n, p
                )
                counter = sampler.joint_counts(target, a, m)
                j_hat = joint_entropy_from_counter(counter)
                j_iv = joint_entropy_interval(
                    j_hat, u_t, store.support_size(a), m, n, p
                )
                sample_mi = max(0.0, t_iv.estimate + c_iv.estimate - j_hat)
                out[a] = mutual_information_interval(t_iv, c_iv, j_iv, sample_mi)
        return out

    return sweep


def batched_mi_sweep(store, names, target, schedule, p, backend):
    sampler = PrefixSampler(store, seed=SAMPLER_SEED, backend=backend)
    provider = MutualInformationScoreProvider(sampler, target, p)

    def sweep():
        out = {}
        for m in schedule:
            out = provider.intervals(names, m)
        return dict(out)

    return sweep


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def measure(make_sweep, reps: int) -> tuple[dict, list[float]]:
    """Run ``reps`` fresh sweeps; return the final intervals and times.

    Each rep rebuilds its sampler (outside the timed region — prefix
    counters must start empty for the sweep to do its full work).
    """
    times = []
    result: dict = {}
    for _ in range(reps):
        sweep = make_sweep()
        start = time.perf_counter()
        result = sweep()
        times.append(time.perf_counter() - start)
    return result, times


def stats_block(times: list[float]) -> dict:
    return {
        "mean": float(np.mean(times)),
        "min": float(np.min(times)),
        "max": float(np.max(times)),
        "stddev": float(np.std(times)),
        "rounds": len(times),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_backend.json"),
        help="where to write the pytest-benchmark-shaped JSON dump",
    )
    args = parser.parse_args(argv)

    store, names, target = build_store()
    schedule = doubling_schedule(store)
    p_entropy = FAILURE_PROBABILITY / (2 * NUM_ATTRIBUTES)
    p_mi = FAILURE_PROBABILITY / (6 * NUM_ATTRIBUTES)
    workload = {
        "num_attributes": NUM_ATTRIBUTES,
        "num_rows": NUM_ROWS,
        "support_size": SUPPORT_SIZE,
        "schedule": ",".join(str(m) for m in schedule),
    }
    print(f"workload: h={NUM_ATTRIBUTES} N={NUM_ROWS} u={SUPPORT_SIZE}")
    print(f"schedule: {schedule}")

    benchmarks = []

    def run_family(family, reps, variants):
        scalar_result, scalar_times = None, None
        for label, make_sweep in variants:
            result, times = measure(make_sweep, reps)
            if label == "scalar":
                scalar_result, scalar_times = result, times
                speedup = 1.0
            else:
                assert result == scalar_result, (
                    f"{family}[{label}] diverged from the scalar path"
                )
                speedup = float(np.mean(scalar_times) / np.mean(times))
            entry = {
                "name": f"test_backend_{family}[{label}]",
                "stats": stats_block(times),
                "extra_info": {**workload, "speedup_vs_scalar": round(speedup, 3)},
            }
            benchmarks.append(entry)
            print(
                f"  {family}[{label}]: mean {np.mean(times) * 1000:.2f}ms"
                f"  ({speedup:.2f}x vs scalar)"
            )

    print("entropy sweep:")
    run_family(
        "entropy_sweep",
        ENTROPY_REPS,
        [
            ("scalar", lambda: scalar_entropy_sweep(store, names, schedule, p_entropy)),
            (
                "batched-numpy",
                lambda: batched_entropy_sweep(store, names, schedule, p_entropy, "numpy"),
            ),
        ],
    )
    print("mi sweep:")
    run_family(
        "mi_sweep",
        MI_REPS,
        [
            ("scalar", lambda: scalar_mi_sweep(store, names, target, schedule, p_mi)),
            (
                "batched-numpy",
                lambda: batched_mi_sweep(store, names, target, schedule, p_mi, "numpy"),
            ),
        ],
    )

    payload = {"machine_info": {"note": "single-core reference box"}, "benchmarks": benchmarks}
    atomic_write_text(Path(args.output), json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    headline = next(
        b["extra_info"]["speedup_vs_scalar"]
        for b in benchmarks
        if b["name"] == "test_backend_entropy_sweep[batched-numpy]"
    )
    print(f"headline entropy speedup: {headline:.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
