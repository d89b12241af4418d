"""Plan-cache benchmark: cold vs warm vs semantic reuse.

Runs the mixed four-query workload of ``bench_plan.py`` three ways on
each counting backend, against a persistent on-disk cache directory:

* ``cold`` — empty cache directory: every query executes live and the
  partition (counter blocks + retired answers) is written at the end;
* ``warm`` — a fresh executor over the populated directory: every query
  is answered from the cache's retired answers with zero cells scanned;
* ``semantic`` — *dominated* requests never stored verbatim (a smaller
  ``k′ < k`` top-k and a weaker ``η′ > η`` filter) served by replaying
  the stored interval histories, again at zero cells scanned.

Every mode's answers are cross-checked byte-for-byte (attributes,
estimates, bounds, guarantee — everything but the work accounting)
against a cache-free fresh run before timings are trusted: the cache's
contract is bit-identity, not approximation. The run also asserts the
ISSUE's floor — the warm rerun must scan at least 5x fewer cells than
cold (it scans zero), and the semantic path exactly zero.

Output is a pytest-benchmark-shaped JSON dump (``BENCH_cache.json`` at
the repo root by default) that ``scripts/bench_report.py`` accepts:

    python benchmarks/bench_cache.py
    python scripts/bench_report.py BENCH_cache.json
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.plan import PlanExecutor, QuerySpec, plan_queries
from repro.data.column_store import ColumnStore
from repro.durability.atomic import atomic_write_text
from repro.durability.checkpoint import result_to_payload

NUM_ATTRIBUTES = 16
NUM_ROWS = 200_000
SEED = 11
SAMPLER_SEED = 7
REPS = 3
TOP_K = 3
ENTROPY_ETA = 3.0
MI_ETA = 0.3
#: Exclusion-style filter pair: η sits above every attribute's entropy,
#: so the stored run's history decides any weaker η′ > η at the same
#: iterations — the dominated serve that never touches data.
EXCLUDE_ETA = 5.0
EXCLUDE_ETA_DERIVED = 5.5
BACKENDS = ["numpy"]


def build_store() -> ColumnStore:
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
    return ColumnStore(columns)


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


def semantic_specs() -> list[list[QuerySpec]]:
    """Dominated single-query plans, one executor each (prefix floor 0).

    Each plan's query starts at the same floor its dominating entry was
    stored at, so the family keys line up and the replay can serve.
    """
    return [
        [QuerySpec(kind="top_k", score="entropy", k=TOP_K - 1, prune=False,
                   name="topk_h_derived")],
        [QuerySpec(kind="filter", score="entropy",
                   threshold=EXCLUDE_ETA_DERIVED, name="filter_h_derived")],
    ]


def answers(outcome) -> list[dict]:
    """Result payloads with work accounting stripped (the identity gate)."""
    payloads = []
    for name in outcome:
        payload = result_to_payload(outcome[name])
        payload.pop("stats")
        payloads.append(payload)
    return payloads


def run_plans(
    store: ColumnStore,
    backend: str,
    plans: list[list[QuerySpec]],
    cache_dir: Path | None,
) -> dict:
    """Execute each spec list on its own executor; sum the cells scanned."""
    all_answers: list[dict] = []
    cells = 0
    for specs in plans:
        kwargs = {} if cache_dir is None else {"cache_dir": cache_dir}
        executor = PlanExecutor(
            store, seed=SAMPLER_SEED, backend=backend, **kwargs
        )
        outcome = executor.execute(plan_queries(store, specs))
        cells += outcome.stats.cells_scanned
        all_answers.extend(answers(outcome))
    return {"answers": all_answers, "cells": cells}


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
        default=str(Path(__file__).resolve().parent.parent / "BENCH_cache.json"),
        help="where to write the pytest-benchmark-shaped JSON dump",
    )
    args = parser.parse_args(argv)

    store = build_store()
    cold_plans = [
        mixed_specs(),
        [QuerySpec(kind="filter", score="entropy", threshold=EXCLUDE_ETA,
                   name="filter_h_excl")],
    ]
    workload = {
        "num_attributes": NUM_ATTRIBUTES + 1,
        "num_rows": NUM_ROWS,
        "queries": "topk_h,filter_h,topk_mi,filter_mi,+2 dominated",
    }
    print(f"workload: h={NUM_ATTRIBUTES + 1} N={NUM_ROWS:,}, 4 mixed queries"
          " + 2 dominated rewrites")

    benchmarks = []
    for backend in BACKENDS:
        # References: the same workloads with no cache in play.
        fresh_main = run_plans(store, backend, [mixed_specs()], None)
        fresh_semantic = run_plans(store, backend, semantic_specs(), None)

        scratch = Path(tempfile.mkdtemp(prefix="bench-cache-"))
        try:
            def run_cold() -> dict:
                if scratch.exists():
                    shutil.rmtree(scratch)
                return run_plans(store, backend, cold_plans, scratch)

            cold, cold_times = measure(run_cold, REPS)
            warm, warm_times = measure(
                lambda: run_plans(store, backend, [mixed_specs()], scratch),
                REPS,
            )
            semantic, semantic_times = measure(
                lambda: run_plans(store, backend, semantic_specs(), scratch),
                REPS,
            )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

        # The bit-identity gate: every cached path equals a fresh run.
        assert warm["answers"] == fresh_main["answers"], (
            f"{backend}: warm answers diverged from a cache-free run"
        )
        assert semantic["answers"] == fresh_semantic["answers"], (
            f"{backend}: semantic answers diverged from a cache-free run"
        )
        # The work floor: warm >= 5x fewer cells (it scans none at all),
        # semantic exactly zero.
        assert warm["cells"] * 5 <= cold["cells"], (
            f"{backend}: warm rerun scanned {warm['cells']:,} cells,"
            f" less than 5x under cold's {cold['cells']:,}"
        )
        assert semantic["cells"] == 0, (
            f"{backend}: semantic serve scanned {semantic['cells']:,} cells"
        )

        speedup = float(np.mean(cold_times) / np.mean(warm_times))
        for label, times, outcome in (
            ("cold", cold_times, cold),
            ("warm", warm_times, warm),
            ("semantic", semantic_times, semantic),
        ):
            benchmarks.append(
                {
                    "name": f"test_cache[{backend}-{label}]",
                    "stats": stats_block(times),
                    "extra_info": {
                        **workload,
                        "backend": backend,
                        "cells_scanned": outcome["cells"],
                        "cells_ratio_vs_cold": round(
                            cold["cells"] / max(outcome["cells"], 1), 3
                        ),
                        "speedup_vs_cold": round(
                            float(np.mean(cold_times) / np.mean(times)), 3
                        ),
                        "answers_bit_identical": True,
                    },
                }
            )
        print(
            f"  {backend}: cold {np.mean(cold_times) * 1000:.1f}ms"
            f" / {cold['cells']:,} cells,"
            f" warm {np.mean(warm_times) * 1000:.1f}ms"
            f" / {warm['cells']:,} cells ({speedup:.0f}x),"
            f" semantic {np.mean(semantic_times) * 1000:.1f}ms"
            f" / {semantic['cells']:,} cells"
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
