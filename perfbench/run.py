"""Run one benchmark workload against the ``repro`` sources of this checkout.

    python3 perfbench/run.py --workload census --seed 1 --seconds 10 --trace 0

Load is a closed loop from one process and one thread: one caller, and
the next operation starts only after the previous one returns. Data and
exact scores are prepared before the loop; exact answering is timed in
rounds between operations. Every operation's answers are checked
against the exact scores outside its timing (Definition 5/6 guarantees,
plus the workload's own identity checks). A failed check fails that
operation; it never aborts the run.

Operations alternate with rounds of a fixed reference kernel (see
:class:`Reference`), and plan latency is reported in units of it, which
cancels the host's speed drift.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` operations alternate untraced and traced, the traced
ones with every layer wrapped (see ``perfbench/layers.py``), and the
last line carries the per-layer metrics; the spans are also written as
Chrome trace-event JSON. A detailed record with provenance goes to
``--out``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import gc
import json
import math
import os
import platform
import re
import shutil
import statistics
import sys
import tempfile
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

# Whether a fresh array gets transparent huge pages depends on how
# fragmented the host's memory is; with numpy's huge-page advice on, the
# query-phase peak RSS moved in 2 MiB steps from run to run. Read by
# numpy at import.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.tracer import Tracer, write_chrome_trace  # noqa: E402
from perfbench.workloads import BACKEND, WORKLOADS, Operation, Workload  # noqa: E402

#: Exact answering is timed this many times per run, after the loop.
EXACT_REPS = 3
#: The reference kernel runs between operations for this share of the
#: untraced operations' time.
REFERENCE_SHARE = 0.3
#: Untraced operations set up their executors this many times each.
SETUP_REPEATS = 3
#: Exact scores closer than this to the k-th score count as ties: columns
#: drawn from one distribution differ only by sampling noise, and a top-k
#: answer may pick any of them.
TIE_TOLERANCE_BITS = 1e-3
#: Report the p90 plan latency only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100
#: Environment variables that would switch the library off the default path.
PATH_SWITCHES = ("REPRO_BACKEND", "REPRO_CACHE_DIR")

#: End-to-end metric -> unit, in the order the result line lists them.
END_TO_END_UNITS = {
    "setup_s": "s",
    "plan_to_reference": "ratio",
    "cells_per_plan": "cells",
    "accuracy": "ratio",
    "success_rate": "ratio",
    "peak_rss_mb": "MiB",
}


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no importable ``repro``)."""


def import_repro(src: Path) -> types.SimpleNamespace:
    """Import the library from ``src`` (and nowhere else)."""
    if not (src / "repro" / "__init__.py").is_file():
        raise SetupError(f"no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SetupError(f"repro was imported from {repro.__file__}, not {src}")
    from repro.baselines import exact
    from repro.core import plan
    from repro.data import column_store, filters, mmap_store
    from repro.durability import checkpoint
    from repro.experiments import accuracy
    from repro.synth import census
    from repro.testing import chaos

    return types.SimpleNamespace(
        accuracy=accuracy, census=census, chaos=chaos, checkpoint=checkpoint,
        column_store=column_store, exact=exact, filters=filters,
        mmap_store=mmap_store, plan=plan,
    )


# ----------------------------------------------------------------------
# Query-phase peak RSS (VmHWM, as bench_parallel.py reads it)
# ----------------------------------------------------------------------
def _status_kib(name: str) -> int:
    with open("/proc/self/status", encoding="utf-8", errors="replace") as handle:
        return int(re.search(rf"{name}:\s+(\d+) kB", handle.read()).group(1))


_LIBC = ctypes.CDLL(ctypes.util.find_library("c"))


def _reset_peak_rss() -> int:
    """Reset VmHWM to the current RSS and return that RSS in KiB.

    VmHWM read after an operation, minus this, is the operation's own
    peak: memory already resident (the dataset, exact-score caches) is
    left out. Free heap pages are handed back first (``malloc_trim``),
    so an operation cannot hide its allocations in pages an earlier one
    left resident.
    """
    _LIBC.malloc_trim(0)
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError as exc:
        raise SetupError(f"cannot reset the peak-RSS counter: {exc}") from exc
    return _status_kib("VmRSS")


# ----------------------------------------------------------------------
# Host-speed reference
# ----------------------------------------------------------------------
class Reference:
    """A fixed kernel timed beside the operations, in the benchmark's own code.

    It shuffles and then scans a constant table of the workload's scale
    (``Workload.reference_shape``), as a shuffled sampler sets up and then
    reads: a permutation of the rows, then a gather and a bincount per
    column and per pair with the first column, and ``c log c`` summed over
    the counts in Python. So its two parts do the kind of work an
    executor's set-up and a plan over the workload's data do, with a
    similar mix of numpy and interpreter time and a similar working set.
    The table and the permutation come from a constant seed, never the
    workload seed, and the kernel calls no ``repro`` code, so no library
    change can move it; only the host's speed does. Set-up time divided by
    the shuffle, and plan time by the scan, cancel that drift.
    """

    support = 32

    def __init__(self, rows: int, columns: int) -> None:
        rng = np.random.default_rng(0)
        self.table = rng.integers(0, self.support, (columns, rows))
        self.expected = self._scan(self._shuffle())

    def _shuffle(self) -> np.ndarray:
        return np.random.default_rng(0).permutation(self.table.shape[1])

    def _scan(self, perm: np.ndarray) -> float:
        base = self.table[0][perm] * self.support
        total = 0.0
        for column in self.table:
            gathered = column[perm]
            for codes in (gathered, base + gathered):
                counts = np.bincount(codes)
                total += sum(c * math.log(c) for c in counts.tolist() if c)
        return total

    def __call__(self) -> tuple[float, float]:
        """Run the kernel once; return the wall times of its shuffle and scan."""
        started = time.perf_counter()
        perm = self._shuffle()
        shuffled = time.perf_counter()
        total = self._scan(perm)
        elapsed = time.perf_counter()
        if total != self.expected:
            raise RuntimeError("the reference kernel gave a different result")
        return shuffled - started, elapsed - shuffled


# ----------------------------------------------------------------------
# The measured loop
# ----------------------------------------------------------------------
@dataclass
class Samples:
    """Per-operation figures of the untraced operations."""

    setup_s: list[float] = field(default_factory=list)
    plan_s: list[float] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    warm_s: list[float] = field(default_factory=list)
    bytes_on_disk: list[int] = field(default_factory=list)
    peak_rss_kib: list[int] = field(default_factory=list)


@dataclass
class Measurement:
    untraced: Samples = field(default_factory=Samples)
    #: Traced operations: only their plan times (for the tracer's
    #: overhead) and wall times (for the per-layer closure) are read.
    traced_plan_s: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    reference_shuffle_s: list[float] = field(default_factory=list)
    reference_scan_s: list[float] = field(default_factory=list)
    #: Mean set-up and plan times of the operations before each round of
    #: reference calls, divided by the round's mean shuffle and scan
    #: times: both sides of each ratio see the same machine conditions.
    setup_to_shuffle: list[float] = field(default_factory=list)
    plan_to_scan: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: Per seed slot: answers and cells of its first operation, and figures.
    fingerprints: dict[int, object] = field(default_factory=dict)
    slot_cells: dict[int, int] = field(default_factory=dict)
    slot_accuracy: dict[int, float] = field(default_factory=dict)


def check_operation(
    workload: Workload, op: Operation, slot: int, m: Measurement
) -> list[str]:
    """In-bench correctness gates for one operation; returns problems."""
    acc = workload.repro.accuracy
    problems = list(op.problems)
    accuracies = []
    for case, plan, outcome in op.plans:
        for spec in plan.specs:
            result = outcome[spec.name]
            scores = workload.exact_scores(case, spec)
            returned = list(result.attributes)
            if spec.kind == "top_k":
                violations = acc.check_top_k_guarantee(result, scores, spec.epsilon)
                accuracies.append(acc.top_k_accuracy(
                    returned, scores, spec.k, tie_tolerance=TIE_TOLERANCE_BITS))
            else:
                violations = acc.check_filter_guarantee(result, scores, spec.epsilon)
                accuracies.append(
                    acc.filter_precision_recall(returned, scores,
                                                spec.threshold).recall)
            problems += [f"{case.label}/{spec.name}: {v}" for v in violations]
    fingerprint = [workload.repro.chaos.plan_fingerprint(o) for _, _, o in op.plans]
    if slot in m.fingerprints:
        if m.fingerprints[slot] != fingerprint:
            problems.append(f"slot {slot} repeat gave different answers or cells")
    else:
        m.fingerprints[slot] = fingerprint
        m.slot_cells[slot] = op.cells
        m.slot_accuracy[slot] = statistics.fmean(accuracies)
    return problems


def measure(
    workload: Workload,
    seconds: float,
    reference: Reference,
    tracer: Tracer | None = None,
) -> Measurement:
    """Closed loop for ``seconds`` and at least one pass over every slot.

    With a ``tracer``, operations alternate untraced and traced, each slot
    once each way in a row; the wrappers are installed only around a
    traced operation, which sets up once. Between operations the
    reference kernel runs for ``REFERENCE_SHARE`` of the untraced
    operations' time.
    """
    m = Measurement()
    try:  # fill caches and page the data in before timing
        workload.cleanup(workload.run(workload.slot_seeds[0]))
    except Exception as exc:  # counted like any failed operation
        m.attempted += 1
        m.failures.append(f"warm-up: {type(exc).__name__}: {exc}")
    gc.collect()
    ways = 1 if tracer is None else 2
    deadline = time.perf_counter() + seconds
    index = 0
    recent_setup_s: list[float] = []
    recent_plan_s: list[float] = []
    reference_total_s = 0.0
    while index < ways * workload.slots or time.perf_counter() < deadline:
        traced = tracer is not None and index % 2 == 1
        slot = (index // ways) % workload.slots
        op: Operation | None = None
        if traced:
            tracer.install()
            tracer.begin_operation(index)
        else:
            rss_before_kib = _reset_peak_rss()
        started = time.perf_counter()
        try:
            op = workload.run(workload.slot_seeds[slot],
                              setup_repeats=1 if traced else SETUP_REPEATS)
        except Exception as exc:  # a failed operation is counted, not fatal
            m.failures.append(f"op {index} slot {slot}: {type(exc).__name__}: {exc}")
        finally:
            wall = time.perf_counter() - started
            if traced:
                wall = tracer.end_operation()
                tracer.uninstall()  # raises unless every original is back
        if traced:
            m.traced_walls.append(wall)
        else:
            m.untraced.walls.append(wall)
            m.untraced.peak_rss_kib.append(_status_kib("VmHWM") - rss_before_kib)
        m.attempted += 1
        index += 1
        if op is not None:
            problems = check_operation(workload, op, slot, m)
            workload.cleanup(op)
            if problems:
                m.failures.append(f"op {index - 1} slot {slot}: " + "; ".join(problems))
            elif traced:
                m.traced_plan_s.append(op.plan_s)
            else:
                samples = m.untraced
                samples.setup_s.append(op.setup_s)
                samples.plan_s.append(op.plan_s)
                recent_setup_s.append(op.setup_s)
                recent_plan_s.append(op.plan_s)
                if op.warm_s is not None:
                    samples.warm_s.append(op.warm_s)
                if op.bytes_on_disk is not None:
                    samples.bytes_on_disk.append(op.bytes_on_disk)
        shuffles, scans = [], []
        while reference_total_s < REFERENCE_SHARE * sum(m.untraced.walls):
            shuffle_s, scan_s = reference()
            shuffles.append(shuffle_s)
            scans.append(scan_s)
            reference_total_s += shuffle_s + scan_s
        if scans and recent_plan_s:
            m.setup_to_shuffle.append(
                statistics.fmean(recent_setup_s) / statistics.fmean(shuffles))
            m.plan_to_scan.append(
                statistics.fmean(recent_plan_s) / statistics.fmean(scans))
            recent_setup_s, recent_plan_s = [], []
        m.reference_shuffle_s += shuffles
        m.reference_scan_s += scans
    return m


def _time_exact(workload: Workload) -> float:
    started = time.perf_counter()
    workload.exact_answers()
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def run_benchmark(repro, args: argparse.Namespace, scale: float = 1.0) -> dict:
    """Prepare, measure and check one workload; return the full record.

    ``scale`` multiplies the workload's row counts; only the benchmark's
    own tests change it.
    """
    for name in PATH_SWITCHES:
        os.environ.pop(name, None)
    tracer = Tracer(layers.TARGETS) if args.trace else None  # fails loud
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        workload = WORKLOADS[args.workload](repro, args.seed, scale, workdir)
        started = time.perf_counter()
        workload.prepare()
        prepare_s = time.perf_counter() - started
        preflight = workload.preflight_problems()
        workload.resolve_plans()
        for case, plan in workload.resolved:  # exact scores, once, before timing
            for spec in plan.specs:
                workload.exact_scores(case, spec)
        rows, columns = workload.reference_shape
        reference = Reference(max(1_000, int(rows * scale)), columns)
        m = measure(workload, args.seconds, reference, tracer)
        exact_s = [_time_exact(workload) for _ in range(EXACT_REPS)]
        provenance = {
            "workload": args.workload,
            "workload_seed": args.seed,
            "data_seed": workload.data_seed,
            "slot_seeds": workload.slot_seeds,
            "scale": scale,
            "backend": BACKEND,
            "nproc": len(os.sched_getaffinity(0)),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            **workload.provenance(),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = list(m.failures)
    attempted = m.attempted
    if preflight is not None:  # the pre-timing check counts as one operation
        attempted += 1
        failures += preflight[:1]
    failed = len(failures)
    if not m.plan_to_scan or (tracer is not None and not m.traced_plan_s):
        raise RuntimeError("no operation succeeded: " + "; ".join(failures[:5]))

    untraced = m.untraced
    plan_ms = [s * 1000 for s in untraced.plan_s]
    exact_ms_p50 = statistics.median(exact_s) * 1000
    end_to_end = {
        "setup_s": (statistics.median(m.setup_to_shuffle)
                    * workload.reference_shuffle_nominal_s),
        "plan_to_reference": statistics.median(m.plan_to_scan),
        "cells_per_plan": statistics.fmean(m.slot_cells.values()),
        "accuracy": statistics.fmean(m.slot_accuracy.values()),
        "success_rate": 1.0 - failed / attempted,
        "peak_rss_mb": statistics.median(untraced.peak_rss_kib) / 1024,
    }
    record = {
        "provenance": provenance,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures[:20],
        "end_to_end": end_to_end,
        "detail": {
            "operations": len(untraced.walls),
            "prepare_s": prepare_s,
            "plan_ms_p50": statistics.median(plan_ms),
            "plan_ms_p90": (
                statistics.quantiles(plan_ms, n=10)[-1]
                if len(plan_ms) >= P90_MIN_SAMPLES else None
            ),
            "setup_s_measured": statistics.median(untraced.setup_s),
            "reference_shuffle_ms_p50": (
                statistics.median(m.reference_shuffle_s) * 1000),
            "reference_scan_ms_p50": statistics.median(m.reference_scan_s) * 1000,
            "exact_ms_p50": exact_ms_p50,
            "exact_reps": len(exact_s),
            "plan_to_exact": statistics.median(plan_ms) / exact_ms_p50,
            "warm_plan_ms_p50": (
                statistics.median(untraced.warm_s) * 1000
                if untraced.warm_s else None
            ),
            "bytes_on_disk_per_plan": (
                statistics.fmean(untraced.bytes_on_disk)
                if untraced.bytes_on_disk else None
            ),
            "cells_by_slot": m.slot_cells,
        },
    }
    if tracer is not None:
        per_layer = layers.layer_metrics(
            tracer.spans,
            tracer.counters,
            operations=len(m.traced_walls),
            mmap_backed=workload.mmap_backed,
            untraced_plan_ms_p50=statistics.median(plan_ms),
            traced_plan_ms_p50=statistics.median(m.traced_plan_s) * 1000,
        )
        record["per_layer"] = per_layer
        # Self times plus unattributed time must add up to the wall time.
        attributed = sum(v for k, v in per_layer.items() if layers.UNITS[k] == "s")
        record["detail"]["closure_error_s"] = (
            attributed - statistics.fmean(m.traced_walls))
        record["detail"]["traced_operations"] = len(m.traced_walls)
        trace_path = out_dir / f"{args.workload}-seed{args.seed}.trace.json"
        write_chrome_trace(trace_path, tracer.spans, provenance)
        record["detail"]["chrome_trace"] = trace_path.name
    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2), encoding="utf-8")
    return record


def result_line(record: dict, trace: bool) -> dict:
    """The last stdout line: ``correct``, ``attempted``, ``failed``, ``metrics``."""
    if trace:
        metrics = {
            name: {"value": value, "unit": layers.UNITS[name]}
            for name, value in record["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in record["end_to_end"].items()
        }
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "out"),
                        help="directory for records, traces and scratch data")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        repro = import_repro(ROOT / "src")
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = run_benchmark(repro, args)
    provenance = record["provenance"]
    print(f"workload {args.workload} seed {args.seed}: "
          + ", ".join(f"{c['label']} N={c['num_rows']} h={c['num_attributes']}"
                      f" sha256={c['dataset_fingerprint'][:12]}"
                      for c in provenance["cases"])
          + f"; backend={provenance['backend']} nproc={provenance['nproc']}"
          f" numpy={provenance['numpy']} python={provenance['python']}")
    detail = record["detail"]
    print(f"plan {detail['plan_ms_p50']:.2f} ms p50 over {detail['operations']}"
          f" operations, reference scan {detail['reference_scan_ms_p50']:.2f} ms p50,"
          f" exact {detail['exact_ms_p50']:.2f} ms p50 over"
          f" {detail['exact_reps']} runs; record in {args.out}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps(result_line(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
