"""Plan-executor benchmark: one shared scan vs back-to-back queries.

Runs the same heterogeneous four-query workload — entropy top-k, entropy
filter, MI top-k, MI filter — two ways on each counting backend:

* ``sequential`` — the pre-planner usage: four independent ``swope_*``
  calls, each building its own sampler (same seed), each paying for its
  own sample from scratch;
* ``shared`` — the four queries planned together and executed by
  :class:`~repro.core.plan.PlanExecutor` over one retained sampler:
  later queries join the scan at the ratchet frontier and reuse every
  counter the earlier queries grew.

Both the machine-independent cost (attribute cells scanned) and
wall-clock time are reported; the shared scan must read strictly fewer
cells *and* run faster — that is the planner's whole point. Each run
also cross-checks the two paths' answers (same top-k sets, same filter
survivor sets) before timing is trusted.

Output is a pytest-benchmark-shaped JSON dump (``BENCH_plan.json`` at
the repo root by default) that ``scripts/bench_report.py`` accepts:

    python benchmarks/bench_plan.py
    python scripts/bench_report.py BENCH_plan.json
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.core.plan import PlanExecutor, QuerySpec, plan_queries
from repro.core.swope import (
    swope_filter_entropy,
    swope_filter_mutual_information,
    swope_top_k_entropy,
    swope_top_k_mutual_information,
)
from repro.data.column_store import ColumnStore
from repro.durability.atomic import atomic_write_text

NUM_ATTRIBUTES = 24
NUM_ROWS = 400_000
SEED = 11
SAMPLER_SEED = 7
REPS = 5
TOP_K = 3
ENTROPY_ETA = 3.0
MI_ETA = 0.3
BACKENDS = ["numpy"]


def build_store() -> tuple[ColumnStore, str]:
    """Mixed-support store with a target and graded MI candidates."""
    rng = np.random.default_rng(SEED)
    n = NUM_ROWS
    target = rng.integers(0, 8, n)
    columns: dict[str, np.ndarray] = {"target": target}
    for i in range(NUM_ATTRIBUTES):
        if i % 4 == 0:  # correlated with the target, graded strength
            keep = rng.random(n) < 0.85 - 0.08 * (i // 4)
            columns[f"a{i:02d}"] = np.where(keep, target, rng.integers(0, 8, n))
        else:  # independent, varied support
            columns[f"a{i:02d}"] = rng.integers(0, 4 + 6 * (i % 4), n)
    return ColumnStore(columns), "target"


def mixed_specs() -> list[QuerySpec]:
    return [
        QuerySpec(kind="top_k", score="entropy", k=TOP_K, prune=False,
                  name="topk_h"),
        QuerySpec(kind="filter", score="entropy", threshold=ENTROPY_ETA,
                  name="filter_h"),
        QuerySpec(kind="top_k", score="mutual_information", k=TOP_K,
                  target="target", prune=False, name="topk_mi"),
        QuerySpec(kind="filter", score="mutual_information", threshold=MI_ETA,
                  target="target", name="filter_mi"),
    ]


def run_sequential(store: ColumnStore, target: str, backend: str) -> dict:
    """Four independent queries, each on a fresh sampler (same seed)."""
    common = {"seed": SAMPLER_SEED, "backend": backend}
    results = {
        "topk_h": swope_top_k_entropy(store, TOP_K, prune=False, **common),
        "filter_h": swope_filter_entropy(store, ENTROPY_ETA, **common),
        "topk_mi": swope_top_k_mutual_information(
            store, target, TOP_K, prune=False, **common
        ),
        "filter_mi": swope_filter_mutual_information(
            store, target, MI_ETA, **common
        ),
    }
    cells = sum(r.stats.cells_scanned for r in results.values())
    return {"results": results, "cells": cells}


def run_shared(store: ColumnStore, backend: str) -> dict:
    """The same four queries through the planner's shared scan."""
    executor = PlanExecutor(store, seed=SAMPLER_SEED, backend=backend)
    plan = plan_queries(store, mixed_specs())
    outcome = executor.execute(plan)
    return {
        "results": {name: outcome[name] for name in plan.names},
        "cells": outcome.stats.cells_scanned,
    }


def check_answers_agree(shared: dict, sequential: dict) -> None:
    """Both paths must select the same attributes (per-query)."""
    for name, seq_result in sequential["results"].items():
        shared_result = shared["results"][name]
        if name.startswith("topk"):
            assert shared_result.attributes == seq_result.attributes, (
                f"{name}: shared top-k {shared_result.attributes} !="
                f" sequential {seq_result.attributes}"
            )
        else:
            assert set(shared_result.attributes) == set(seq_result.attributes), (
                f"{name}: shared filter set diverged from sequential"
            )


def measure(run, reps: int) -> tuple[dict, list[float]]:
    times = []
    outcome: dict = {}
    for _ in range(reps):
        start = time.perf_counter()
        outcome = run()
        times.append(time.perf_counter() - start)
    return outcome, times


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
        default=str(Path(__file__).resolve().parent.parent / "BENCH_plan.json"),
        help="where to write the pytest-benchmark-shaped JSON dump",
    )
    args = parser.parse_args(argv)

    store, target = build_store()
    workload = {
        "num_attributes": NUM_ATTRIBUTES + 1,
        "num_rows": NUM_ROWS,
        "queries": "topk_h,filter_h,topk_mi,filter_mi",
    }
    print(f"workload: h={NUM_ATTRIBUTES + 1} N={NUM_ROWS:,}, 4 mixed queries")

    benchmarks = []
    for backend in BACKENDS:
        sequential, seq_times = measure(
            lambda: run_sequential(store, target, backend), REPS
        )
        shared, shared_times = measure(lambda: run_shared(store, backend), REPS)
        check_answers_agree(shared, sequential)
        assert shared["cells"] < sequential["cells"], (
            f"{backend}: shared scan read {shared['cells']:,} cells,"
            f" not fewer than sequential's {sequential['cells']:,}"
        )
        speedup = float(np.mean(seq_times) / np.mean(shared_times))
        cells_ratio = sequential["cells"] / shared["cells"]
        for label, times, cells in (
            ("sequential", seq_times, sequential["cells"]),
            ("shared", shared_times, shared["cells"]),
        ):
            benchmarks.append(
                {
                    "name": f"test_plan_mixed[{backend}-{label}]",
                    "stats": stats_block(times),
                    "extra_info": {
                        **workload,
                        "backend": backend,
                        "cells_scanned": cells,
                        "speedup_vs_sequential": round(
                            speedup if label == "shared" else 1.0, 3
                        ),
                        "cells_ratio_vs_sequential": round(
                            cells_ratio if label == "shared" else 1.0, 3
                        ),
                    },
                }
            )
        print(
            f"  {backend}: sequential {np.mean(seq_times) * 1000:.1f}ms"
            f" / {sequential['cells']:,} cells,"
            f" shared {np.mean(shared_times) * 1000:.1f}ms"
            f" / {shared['cells']:,} cells"
            f" -> {speedup:.2f}x faster, {cells_ratio:.2f}x fewer cells"
        )

    payload = {
        "machine_info": {"note": "single-core reference box"},
        "benchmarks": benchmarks,
    }
    atomic_write_text(Path(args.output), json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
