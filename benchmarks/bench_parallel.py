"""Out-of-core storage benchmark.

Builds a multi-GB on-disk :class:`~repro.data.mmap_store.MmapStore` chunk
by chunk (default 10^8 rows x 16 int8 columns ~ 1.6 GB), then runs the
mixed example plan (``examples/plan_mixed.json``) against it in a *fresh
child process* and reports the child's peak RSS. The acceptance gate is
peak RSS < 25% of the dataset's on-disk bytes — the plan must stream,
not materialise. Agreement is separately pinned at a small N where an
in-memory run is cheap: the mmap-backed plan's answers must be
bit-identical to the in-memory plan's.

The result is recorded to ``BENCH_parallel.json`` (a
pytest-benchmark-shaped dump that ``scripts/bench_report.py`` accepts).

Run (needs ~2x the dataset bytes free on disk):

    python benchmarks/bench_parallel.py
    python benchmarks/bench_parallel.py --ooc-rows 1000000   # quick pass
    python scripts/bench_report.py BENCH_parallel.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.plan import PlanExecutor, load_plan, plan_queries
from repro.data.column_store import ColumnStore
from repro.data.mmap_store import MmapStore, MmapStoreWriter
from repro.durability.atomic import atomic_write_text
from repro.testing.chaos import plan_fingerprint

REPO_ROOT = Path(__file__).resolve().parent.parent

SEED = 11

#: Out-of-core workload: 16 int8 columns -> 16 bytes/row; 10^8 rows is
#: ~1.6 GB on disk, far past any sensible in-memory materialisation.
#: Supports avoid u=4 (uniform entropy exactly 2.0 bits — the example
#: plan's filter threshold, which no finite sample could ever decide),
#: and the three noisy copies of the MI target give the MI queries
#: clearly separated positives, so the plan converges at M << N — the
#: paper's premise, and what keeps the out-of-core working set small.
OOC_ROWS = 100_000_000
OOC_CHUNK_ROWS = 4_000_000
OOC_NOISY_KEEP = {"mi_noisy_00": 0.85, "mi_noisy_01": 0.6, "mi_noisy_02": 0.4}
OOC_SUPPORTS = {
    "mi_base_00": 8,
    "mi_noisy_00": 8,
    "mi_noisy_01": 8,
    "mi_noisy_02": 8,
    **{
        f"col_{i:02d}": u
        for i, u in enumerate(
            [3, 6, 12, 16, 24, 32, 48, 64, 9, 14, 20, 28], start=4
        )
    },
}
RSS_FRACTION_CEILING = 0.25
#: Below this dataset size the interpreter's own baseline RSS dominates
#: and the 25% fraction stops being a statement about streaming.
RSS_GATE_MIN_BYTES = 1 << 30
AGREEMENT_ROWS = 200_000


# ----------------------------------------------------------------------
# Out-of-core mixed plan, peak RSS in a fresh child process
# ----------------------------------------------------------------------
def stats_block(times: list[float]) -> dict:
    return {
        "mean": float(np.mean(times)),
        "min": float(np.min(times)),
        "max": float(np.max(times)),
        "stddev": float(np.std(times)),
        "rounds": len(times),
    }


def generate_chunk(rng: np.random.Generator, length: int) -> dict:
    base = rng.integers(0, OOC_SUPPORTS["mi_base_00"], size=length)
    chunk = {"mi_base_00": base}
    for name, keep_rate in OOC_NOISY_KEEP.items():
        keep = rng.random(length) < keep_rate
        chunk[name] = np.where(
            keep, base, rng.integers(0, OOC_SUPPORTS[name], size=length)
        )
    for name, support in OOC_SUPPORTS.items():
        if name not in chunk:
            chunk[name] = rng.integers(0, support, size=length)
    return chunk


def build_ooc_store(directory: Path, num_rows: int) -> MmapStore:
    rng = np.random.default_rng(SEED)
    writer = MmapStoreWriter(directory, OOC_SUPPORTS, num_rows)
    started = time.perf_counter()
    while writer.rows_written < num_rows:
        length = min(OOC_CHUNK_ROWS, num_rows - writer.rows_written)
        writer.append(generate_chunk(rng, length))
    store = writer.finalize()
    print(
        f"  built {num_rows:,} rows x {len(OOC_SUPPORTS)} columns"
        f" ({store.disk_bytes():,} bytes) in"
        f" {time.perf_counter() - started:.1f}s"
    )
    return store


#: Runs in a fresh interpreter so the high-water mark measures only the
#: plan execution over the mmap store — not the build, not the parent.
#: Peak RSS comes from ``VmHWM`` (per-address-space, reset by execve)
#: rather than ``ru_maxrss``, which Linux carries across fork+exec: a
#: child forked from the parent that just wrote the 1.6 GB store would
#: otherwise inherit the builder's high-water mark and dwarf its own.
_CHILD_SOURCE = """
import json, re, resource, sys, time
from repro.core.plan import PlanExecutor, load_plan, plan_queries
from repro.data.mmap_store import MmapStore
from repro.testing.chaos import plan_fingerprint

def peak_rss_kib():
    try:
        with open("/proc/self/status") as handle:
            return int(re.search(r"VmHWM:\\s+(\\d+) kB", handle.read()).group(1))
    except (OSError, AttributeError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

store_dir, plan_path, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
store = MmapStore.open(store_dir)
plan = plan_queries(store, load_plan(plan_path))
started = time.perf_counter()
outcome = PlanExecutor(store, seed=seed, sequential=True).execute(plan)
elapsed = time.perf_counter() - started
print(json.dumps({
    "peak_rss_kib": peak_rss_kib(),
    "plan_fingerprint": plan_fingerprint(outcome),
    "plan_seconds": elapsed,
    "cells_scanned": outcome.stats.cells_scanned,
}))
"""


def run_plan_in_child(store_dir: Path, plan_path: Path) -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_SOURCE, str(store_dir), str(plan_path), str(SEED)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_small_n_agreement(workdir: Path, plan_path: Path) -> None:
    """mmap-backed plan answers == in-memory plan answers at small N."""
    rng = np.random.default_rng(SEED)
    chunk = generate_chunk(rng, AGREEMENT_ROWS)
    memory_store = ColumnStore(chunk, support_sizes=dict(OOC_SUPPORTS))
    disk_store = MmapStore.from_column_store(memory_store, workdir / "agree")
    specs = load_plan(plan_path)
    reference = plan_fingerprint(
        PlanExecutor(memory_store, seed=SEED).execute(
            plan_queries(memory_store, specs)
        )
    )
    candidate = plan_fingerprint(
        PlanExecutor(disk_store, seed=SEED).execute(
            plan_queries(disk_store, specs)
        )
    )
    assert candidate == reference, (
        "mmap-backed plan diverged from the in-memory plan at small N"
    )


def run_out_of_core(benchmarks: list[dict], num_rows: int) -> None:
    plan_path = REPO_ROOT / "examples" / "plan_mixed.json"
    workdir = Path(tempfile.mkdtemp(prefix="bench_parallel_"))
    try:
        print(f"out-of-core: building {num_rows:,}-row mmap store...")
        check_small_n_agreement(workdir, plan_path)
        print(
            f"  small-N agreement ({AGREEMENT_ROWS:,} rows): mmap plan =="
            " in-memory plan"
        )
        store = build_ooc_store(workdir / "store", num_rows)
        disk_bytes = store.disk_bytes()
        child = run_plan_in_child(workdir / "store", plan_path)
        rss_bytes = int(child["peak_rss_kib"]) * 1024
        fraction = rss_bytes / disk_bytes
        print(
            f"  mixed plan in child process: {child['plan_seconds']:.2f}s,"
            f" {child['cells_scanned']:,} cells, peak RSS"
            f" {rss_bytes / 2**20:.0f} MiB = {fraction:.1%} of"
            f" {disk_bytes / 2**30:.2f} GiB on disk"
        )
        if disk_bytes >= RSS_GATE_MIN_BYTES:
            assert fraction < RSS_FRACTION_CEILING, (
                f"peak RSS {fraction:.1%} of dataset size breaches the"
                f" {RSS_FRACTION_CEILING:.0%} out-of-core ceiling"
            )
        else:
            print(
                "  (RSS ceiling not asserted: dataset below"
                f" {RSS_GATE_MIN_BYTES / 2**30:.0f} GiB, interpreter baseline"
                " dominates)"
            )
        benchmarks.append(
            {
                "name": "test_parallel_out_of_core[plan_mixed]",
                "stats": stats_block([float(child["plan_seconds"])]),
                "extra_info": {
                    "num_rows": num_rows,
                    "num_columns": len(OOC_SUPPORTS),
                    "disk_bytes": disk_bytes,
                    "peak_rss_bytes": rss_bytes,
                    "rss_fraction_of_dataset": round(fraction, 4),
                    "cells_scanned": int(child["cells_scanned"]),
                    "agreement": "plan bit-identical mmap vs memory at"
                    f" N={AGREEMENT_ROWS}",
                },
            }
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_parallel.json"),
        help="where to write the pytest-benchmark-shaped JSON dump",
    )
    parser.add_argument(
        "--ooc-rows",
        type=int,
        default=OOC_ROWS,
        help="rows in the out-of-core store (default 10^8; lower for a"
        " quick pass — the RSS ceiling is only asserted above"
        f" {RSS_GATE_MIN_BYTES / 2**30:.0f} GiB on disk)",
    )
    args = parser.parse_args(argv)

    benchmarks: list[dict] = []
    run_out_of_core(benchmarks, args.ooc_rows)

    payload = {
        "machine_info": {
            "cpu_count": os.cpu_count() or 1,
            "note": "RSS ceiling asserted only at >= 1 GiB on disk",
        },
        "benchmarks": benchmarks,
    }
    atomic_write_text(Path(args.output), json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
