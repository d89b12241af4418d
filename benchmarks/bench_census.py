"""Census-track benchmark: SWOPE vs exact on the skewed wide table.

Runs the ``skewed`` census scenario — Zipf-skewed identifier columns
around and above the u = 1000 preprocessing cutoff plus mid-entropy
demographic columns — end to end on each counting backend: manifested
generation, support partitioning, the scenario's plan under SWOPE, and
the same queries under exact full scans.

Agreement is asserted *in-bench* before any timing is trusted: every
query must return the exact answer set (accuracy 1.0) and hold its
Definition 5/6 guarantee; a violation aborts the run rather than
producing a fast-but-wrong number.

Output is a pytest-benchmark-shaped JSON dump (``BENCH_census.json`` at
the repo root by default) that ``scripts/bench_report.py`` accepts:

    python benchmarks/bench_census.py
    python scripts/bench_report.py BENCH_census.json
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.baselines import exact_filter_entropy, exact_top_k_entropy
from repro.core.plan import PlanExecutor
from repro.data.filters import partition_by_support
from repro.durability.atomic import atomic_write_text
from repro.experiments.runner import GroundTruthCache
from repro.experiments.workloads import census_plan, run_scenario
from repro.synth.census import generate_census

SCENARIO = "skewed"
SEED = 0
SCALE = 1.0  # the registry size: 60k rows, supports 16..4000
REPS = 3
BACKENDS = ["numpy"]


def measure(run, reps: int) -> tuple[object, list[float]]:
    times = []
    outcome: object = None
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
        default=str(
            Path(__file__).resolve().parent.parent / "BENCH_census.json"
        ),
        help="where to write the pytest-benchmark-shaped JSON dump",
    )
    args = parser.parse_args(argv)

    dataset = generate_census(SCENARIO, seed=SEED, scale=SCALE)
    kept, dropped = partition_by_support(dataset.store)
    workload = {
        "scenario": SCENARIO,
        "num_rows": kept.num_rows,
        "kept_columns": len(kept.attributes),
        "dropped_columns": ",".join(dropped),
        "manifest_sha256": dataset.fingerprint[:16],
        "queries": ",".join(
            str(entry["name"]) for entry in dataset.scenario.queries
        ),
    }
    print(
        f"workload: census/{SCENARIO} N={kept.num_rows:,},"
        f" {len(kept.attributes)} kept columns"
        f" (dropped over u=1000: {', '.join(dropped)})"
    )

    truth = GroundTruthCache()
    benchmarks = []
    for backend in BACKENDS:
        # The agreement gate: the scored run must be exact-equivalent
        # with zero guarantee violations before timings mean anything.
        outcome = run_scenario(
            SCENARIO, seed=SEED, scale=SCALE, truth=truth, dataset=dataset,
        )
        for query in outcome.queries:
            assert query.accuracy == 1.0, (
                f"{backend}/{query.name}: SWOPE answer"
                f" {query.answer} != exact {query.exact_answer}"
            )
            assert query.guarantee_held, (
                f"{backend}/{query.name}: guarantee violated:"
                f" {query.violations}"
            )

        plan = census_plan(dataset.scenario, kept)

        def run_swope() -> int:
            executor = PlanExecutor(kept, seed=SEED, backend=backend)
            return executor.execute(plan).stats.cells_scanned

        swope_cells, swope_times = measure(run_swope, REPS)

        def run_exact() -> int:
            cells = 0
            for spec in plan.specs:
                candidates = list(spec.attributes or ())
                if spec.kind == "top_k":
                    exact = exact_top_k_entropy(
                        kept, spec.k or 1, attributes=candidates
                    )
                else:
                    exact = exact_filter_entropy(
                        kept, spec.threshold or 0.0, attributes=candidates
                    )
                cells += exact.stats.cells_scanned
            return cells

        exact_cells, exact_times = measure(run_exact, REPS)
        assert exact_cells == outcome.exact_cells

        speedup_cells = int(str(exact_cells)) / max(int(str(swope_cells)), 1)
        benchmarks.append(
            {
                "name": f"test_census[{backend}-swope]",
                "stats": stats_block(swope_times),
                "extra_info": {
                    **workload,
                    "backend": backend,
                    "algorithm": "swope",
                    "cells_scanned": int(str(swope_cells)),
                    "cells_ratio_vs_exact": round(speedup_cells, 3),
                    "accuracy": 1.0,
                    "guarantee_violations": 0,
                },
            }
        )
        benchmarks.append(
            {
                "name": f"test_census[{backend}-exact]",
                "stats": stats_block(exact_times),
                "extra_info": {
                    **workload,
                    "backend": backend,
                    "algorithm": "exact",
                    "cells_scanned": int(str(exact_cells)),
                    "cells_ratio_vs_exact": 1.0,
                    "accuracy": 1.0,
                    "guarantee_violations": 0,
                },
            }
        )
        print(
            f"  {backend}: swope {np.mean(swope_times) * 1000:.1f}ms"
            f" / {int(str(swope_cells)):,} cells,"
            f" exact {np.mean(exact_times) * 1000:.1f}ms"
            f" / {int(str(exact_cells)):,} cells"
            f" ({speedup_cells:.1f}x fewer cells, agreement exact)"
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
