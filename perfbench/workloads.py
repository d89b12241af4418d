"""The benchmark's four workloads, each built from the workload seed.

Every workload drives the public API the way ``repro query --queries
plan.json`` does: one operation builds a fresh
:class:`~repro.core.plan.PlanExecutor` on the default path (numpy
backend, shuffled sampler, ``p_f = 1/N``) and runs one plan on it.
Operations cycle through a fixed number of sampler-seed *slots*; the
data seed and every slot seed derive from the workload seed, so the
cells an operation scans repeat exactly for a given seed.

``repro`` is imported lazily (see :func:`perfbench.run.import_repro`),
so this module can be imported before the library is on the path.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

BACKEND = "numpy"

#: ``examples/plan_mixed.json``, embedded so the benchmark's plan cannot
#: drift with the example file.
PLAN_MIXED = (
    {"name": "top_entropy", "kind": "topk-entropy", "k": 3},
    {"name": "high_entropy", "kind": "filter-entropy", "threshold": 2.0},
    {"name": "top_mi", "kind": "topk-mi", "target": "mi_base_00", "k": 3},
    {"name": "relevant_mi", "kind": "filter-mi", "target": "mi_base_00",
     "threshold": 0.2},
)

#: The four-query mix of ``benchmarks/bench_plan.py``/``bench_cache.py``.
MIXED_QUERIES = (
    {"name": "topk_h", "kind": "topk-entropy", "k": 3, "prune": False},
    {"name": "filter_h", "kind": "filter-entropy", "threshold": 3.0},
    {"name": "topk_mi", "kind": "topk-mi", "target": "target", "k": 3,
     "prune": False},
    {"name": "filter_mi", "kind": "filter-mi", "target": "target",
     "threshold": 0.3},
)

#: ``benchmarks/bench_parallel.py``'s out-of-core columns: noisy copies
#: of an MI base plus independent columns of varied support.
OOC_NOISY_KEEP = {"mi_noisy_00": 0.85, "mi_noisy_01": 0.6, "mi_noisy_02": 0.4}
OOC_SUPPORTS = {
    "mi_base_00": 8,
    "mi_noisy_00": 8,
    "mi_noisy_01": 8,
    "mi_noisy_02": 8,
    **{
        f"col_{i:02d}": u
        for i, u in enumerate([3, 6, 12, 16, 24, 32, 48, 64, 9, 14, 20, 28], start=4)
    },
}
OOC_CHUNK_ROWS = 1_000_000


def timed_setup(build: Callable[[], Any], repeats: int) -> tuple[Any, float]:
    """Call ``build`` ``repeats`` times; return the last result and the fastest time.

    The fastest of a few set-ups filters out a page-fault or scheduling
    stall that hits one of them.
    """
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        result = build()
        best = min(best, time.perf_counter() - started)
    return result, best


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed derived from the workload seed and ``keys``."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


@dataclass
class Case:
    """One store and the plan run on it within an operation."""

    label: str
    store: Any
    specs: tuple  # of repro.core.plan.QuerySpec


@dataclass
class Operation:
    """What one operation did, for the metrics and the in-bench checks."""

    setup_s: float = 0.0
    plan_s: float = 0.0
    cells: int = 0
    #: ``(case, resolved plan, plan result)`` per plan run.
    plans: list[tuple[Case, Any, Any]] = field(default_factory=list)
    warm_s: float | None = None
    bytes_on_disk: int | None = None
    #: Per-operation scratch directory, removed by :meth:`Workload.cleanup`.
    directory: Path | None = None
    problems: list[str] = field(default_factory=list)


class Workload:
    """Base workload: in-memory cases, one fresh executor per case."""

    name = ""
    slots = 4
    mmap_backed = False
    #: ``(rows, columns)`` of the reference kernel's table
    #: (:class:`perfbench.run.Reference`): the scale of the workload's data.
    reference_shape = (0, 0)
    #: The reference shuffle's time on the 2-vCPU VM the benchmark was
    #: tuned on. ``setup_s`` is reported at the host speed where the
    #: shuffle takes this long, so that host drift cancels.
    reference_shuffle_nominal_s = 0.0

    def __init__(self, repro, seed: int, scale: float, workdir: Path) -> None:
        self.repro = repro
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.data_seed = derive_seed(seed, 0)
        self.slot_seeds = [derive_seed(seed, 1, slot) for slot in range(self.slots)]
        self.cases: list[Case] = []
        #: ``(case, resolved plan)`` per case, from :meth:`resolve_plans`.
        self.resolved: list[tuple[Case, Any]] = []
        self._scores: dict[tuple, dict[str, float]] = {}

    # -- set-up outside the timed region ----------------------------------
    def add_case(self, label: str, store, queries) -> None:
        """Add a store and the plan-file entries of the plan run on it."""
        specs = tuple(self.repro.plan.QuerySpec.from_dict(q) for q in queries)
        self.cases.append(Case(label, store, specs))

    def prepare(self) -> None:
        """Build the data (and anything else an operation reads)."""
        raise NotImplementedError

    def preflight_problems(self) -> list[str] | None:
        """Problems found by a check run once before timing (``None``: no check)."""
        return None

    def provenance(self) -> dict[str, Any]:
        return {
            "cases": [
                {
                    "label": case.label,
                    "dataset_fingerprint": case.store.fingerprint(),
                    "num_rows": case.store.num_rows,
                    "num_attributes": len(case.store.attributes),
                }
                for case in self.cases
            ],
        }

    # -- the operation -----------------------------------------------------
    def run(self, sampler_seed: int, setup_repeats: int = 1) -> Operation:
        """One operation; each set-up is built ``setup_repeats`` times."""
        plan_mod = self.repro.plan
        op = Operation()
        for case in self.cases:
            executor, setup_s = timed_setup(
                lambda: plan_mod.PlanExecutor(case.store, seed=sampler_seed,
                                              backend=BACKEND),
                setup_repeats)
            t1 = time.perf_counter()
            plan = plan_mod.plan_queries(case.store, case.specs)
            outcome = executor.execute(plan)
            t2 = time.perf_counter()
            op.setup_s += setup_s
            op.plan_s += t2 - t1
            op.cells += outcome.stats.cells_scanned
            op.plans.append((case, plan, outcome))
        return op

    def cleanup(self, op: Operation) -> None:
        """Release what an operation left behind (outside the timed region)."""

    # -- exact answers -----------------------------------------------------
    def exact_store(self, case: Case) -> Any:
        """The store the exact full scans read."""
        return case.store

    def resolve_plans(self) -> None:
        """Plan every case once, for the exact answers and exact scores."""
        self.resolved = [
            (case, self.repro.plan.plan_queries(case.store, case.specs))
            for case in self.cases
        ]

    def exact_answers(self) -> None:
        """Answer every case's plan by exact full scans (the timed reference).

        Uses the plans :meth:`resolve_plans` made before timing, so the
        planner's own cost stays out of the exact side.
        """
        exact = self.repro.exact
        for case, plan in self.resolved:
            store = self.exact_store(case)
            for spec in plan.specs:
                candidates = list(spec.attributes)
                if spec.score == "entropy":
                    if spec.kind == "top_k":
                        exact.exact_top_k_entropy(store, spec.k,
                                                  attributes=candidates)
                    else:
                        exact.exact_filter_entropy(store, spec.threshold,
                                                   attributes=candidates)
                elif spec.kind == "top_k":
                    exact.exact_top_k_mutual_information(
                        store, spec.target, spec.k, candidates=candidates)
                else:
                    exact.exact_filter_mutual_information(
                        store, spec.target, spec.threshold, candidates=candidates)

    def exact_scores(self, case: Case, spec) -> dict[str, float]:
        """Exact scores of ``spec``'s candidates (computed once per run)."""
        key = (case.label, spec.score, spec.target)
        if key not in self._scores:
            exact = self.repro.exact
            store = self.exact_store(case)
            if spec.score == "entropy":
                scores = exact.exact_entropies(store)
            else:
                scores = exact.exact_mutual_informations(store, spec.target)
            self._scores[key] = {k: float(v) for k, v in scores.items()}
        scores = self._scores[key]
        return {name: scores[name] for name in spec.attributes}


# ----------------------------------------------------------------------
# census
# ----------------------------------------------------------------------
class Census(Workload):
    name = "census"
    slots = 16
    reference_shape = (50_000, 24)
    reference_shuffle_nominal_s = 0.75e-3
    scenarios = ("skewed", "correlated", "noisy", "threshold")

    def prepare(self) -> None:
        census = self.repro.census
        for key in self.scenarios:
            dataset = census.generate_census(key, seed=self.data_seed,
                                             scale=self.scale)
            kept, _dropped = self.repro.filters.partition_by_support(dataset.store)
            self.add_case(key, kept, dataset.scenario.queries)


# ----------------------------------------------------------------------
# wide_mixed
# ----------------------------------------------------------------------
def mixed_store(repro, rows: int, attributes: int, seed: int):
    """``bench_plan.py``'s generator: a target plus graded MI candidates."""
    rng = np.random.default_rng(seed)
    target = rng.integers(0, 8, rows)
    columns: dict[str, np.ndarray] = {"target": target}
    for i in range(attributes):
        if i % 4 == 0:  # correlated with the target, graded strength
            keep = rng.random(rows) < 0.85 - 0.08 * (i // 4)
            columns[f"a{i:02d}"] = np.where(keep, target, rng.integers(0, 8, rows))
        else:  # independent, varied support
            columns[f"a{i:02d}"] = rng.integers(0, 4 + 6 * (i % 4), rows)
    return repro.column_store.ColumnStore(columns)


class WideMixed(Workload):
    name = "wide_mixed"
    reference_shape = (1_000_000, 4)
    reference_shuffle_nominal_s = 19e-3
    rows = 1_000_000
    attributes = 24  # plus the target: h = 25

    def prepare(self) -> None:
        rows = max(1_000, int(self.rows * self.scale))
        store = mixed_store(self.repro, rows, self.attributes, self.data_seed)
        self.add_case("wide_mixed", store, MIXED_QUERIES)


# ----------------------------------------------------------------------
# durable
# ----------------------------------------------------------------------
def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Durable(Workload):
    """Cold checkpointed + cached plan, then a warm rerun over the cache."""

    name = "durable"
    reference_shape = (200_000, 16)
    reference_shuffle_nominal_s = 2.6e-3
    rows = 200_000
    attributes = 16

    def prepare(self) -> None:
        rows = max(1_000, int(self.rows * self.scale))
        store = mixed_store(self.repro, rows, self.attributes, self.data_seed)
        self.add_case("durable", store, MIXED_QUERIES)

    def run(self, sampler_seed: int, setup_repeats: int = 1) -> Operation:
        plan_mod = self.repro.plan
        (case,) = self.cases
        directory = Path(tempfile.mkdtemp(prefix="durable-", dir=self.workdir))
        op = Operation(directory=directory)
        cold_executor, cold_setup_s = timed_setup(
            lambda: plan_mod.PlanExecutor(
                case.store, seed=sampler_seed, backend=BACKEND,
                cache_dir=directory / "cache",
                checkpoint_path=directory / "plan.ckpt",
            ),
            setup_repeats)
        t1 = time.perf_counter()
        cold_plan = plan_mod.plan_queries(case.store, case.specs)
        cold = cold_executor.execute(cold_plan)
        t2 = time.perf_counter()
        warm_executor, warm_setup_s = timed_setup(
            lambda: plan_mod.PlanExecutor(
                case.store, seed=sampler_seed, backend=BACKEND,
                cache_dir=directory / "cache",
            ),
            setup_repeats)
        t3 = time.perf_counter()
        warm = warm_executor.execute(
            plan_mod.plan_queries(case.store, case.specs))
        t4 = time.perf_counter()
        op.setup_s = cold_setup_s + warm_setup_s
        op.plan_s = t2 - t1
        op.warm_s = t4 - t3
        op.cells = cold.stats.cells_scanned
        op.plans.append((case, cold_plan, cold))
        op.bytes_on_disk = _tree_bytes(directory)
        if warm.stats.cells_scanned != 0:
            op.problems.append(
                f"warm rerun scanned {warm.stats.cells_scanned} cells, not 0")
        if self._answers(warm) != self._answers(cold):
            op.problems.append("warm answers differ from cold answers")
        return op

    def _answers(self, outcome) -> list[dict]:
        """Result payloads without work accounting: the byte-identity gate."""
        payloads = []
        for name in outcome:
            payload = self.repro.checkpoint.result_to_payload(outcome[name])
            payload.pop("stats")
            payloads.append(payload)
        return payloads

    def cleanup(self, op: Operation) -> None:
        shutil.rmtree(op.directory, ignore_errors=True)


# ----------------------------------------------------------------------
# ooc_mmap
# ----------------------------------------------------------------------
def ooc_chunk(rng: np.random.Generator, length: int) -> dict[str, np.ndarray]:
    """``bench_parallel.py``'s out-of-core generator, one chunk."""
    base = rng.integers(0, OOC_SUPPORTS["mi_base_00"], size=length)
    chunk = {"mi_base_00": base}
    for name, keep_rate in OOC_NOISY_KEEP.items():
        keep = rng.random(length) < keep_rate
        chunk[name] = np.where(keep, base, rng.integers(0, OOC_SUPPORTS[name],
                                                        size=length))
    for name, support in OOC_SUPPORTS.items():
        if name not in chunk:
            chunk[name] = rng.integers(0, support, size=length)
    return chunk


class OocMmap(Workload):
    """An on-disk MmapStore, reopened by every operation, shuffled path."""

    name = "ooc_mmap"
    mmap_backed = True
    reference_shape = (4_000_000, 2)
    reference_shuffle_nominal_s = 116e-3
    rows = 4_000_000
    agreement_rows = 200_000

    def prepare(self) -> None:
        rows = max(10_000, int(self.rows * self.scale))
        rng = np.random.default_rng(self.data_seed)
        self.store_dir = self.workdir / "ooc_store"
        writer = self.repro.mmap_store.MmapStoreWriter(self.store_dir,
                                                       OOC_SUPPORTS, rows)
        while writer.rows_written < rows:
            length = min(OOC_CHUNK_ROWS, rows - writer.rows_written)
            writer.append(ooc_chunk(rng, length))
        store = writer.finalize()
        # Finish write-back now, so it cannot compete with the timed reads.
        for path in self.store_dir.iterdir():
            with open(path, "rb") as handle:
                os.fsync(handle.fileno())
        self.add_case("ooc_mmap", store, PLAN_MIXED)

    def preflight_problems(self) -> list[str]:
        """mmap answers == in-memory answers on a small-N copy of the data."""
        repro = self.repro
        rows = max(10_000, int(self.agreement_rows * self.scale))
        chunk = ooc_chunk(np.random.default_rng(self.data_seed), rows)
        memory = repro.column_store.ColumnStore(chunk,
                                                support_sizes=dict(OOC_SUPPORTS))
        disk = repro.mmap_store.MmapStore.from_column_store(
            memory, self.workdir / "agreement")
        (case,) = self.cases
        fingerprints = []
        for store in (memory, disk):
            outcome = repro.plan.PlanExecutor(
                store, seed=self.slot_seeds[0], backend=BACKEND,
            ).execute(repro.plan.plan_queries(store, case.specs))
            fingerprints.append(repro.chaos.plan_fingerprint(outcome))
        shutil.rmtree(self.workdir / "agreement", ignore_errors=True)
        if fingerprints[0] != fingerprints[1]:
            return [f"mmap plan differs from in-memory plan at N={rows}"]
        return []

    def exact_store(self, case: Case) -> Any:
        """A store opened for one exact scan, released when the scan ends.

        ``MmapStore`` keeps each column it has read mapped; the long-lived
        ``case.store``, scanned in full, would keep the whole dataset
        mapped beside the operations' own mappings.
        """
        return self.repro.mmap_store.MmapStore.open(self.store_dir)

    def run(self, sampler_seed: int, setup_repeats: int = 1) -> Operation:
        plan_mod = self.repro.plan
        mmap_store = self.repro.mmap_store
        (case,) = self.cases

        def build():
            store = mmap_store.MmapStore.open(self.store_dir)
            return store, plan_mod.PlanExecutor(store, seed=sampler_seed,
                                                backend=BACKEND)

        (store, executor), setup_s = timed_setup(build, setup_repeats)
        t1 = time.perf_counter()
        plan = plan_mod.plan_queries(store, case.specs)
        outcome = executor.execute(plan)
        t2 = time.perf_counter()
        op = Operation(setup_s=setup_s, plan_s=t2 - t1,
                       cells=outcome.stats.cells_scanned)
        op.plans.append((case, plan, outcome))
        return op


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Census, WideMixed, Durable, OocMmap)
}
