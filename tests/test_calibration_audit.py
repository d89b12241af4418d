"""Engine-level calibration audit: do the intervals cover at their stated rate?

The Definition 5/6 audits run at ``p_f = 1/N``, where answers are almost
always right even when an interval is wrong. This audit runs the engine
at a large per-bound failure probability instead and measures, at every
sample size a query evaluates, the share of runs whose exact score lies
inside the reported ``[lower, upper]``. The theory (Lemma 3, docs/THEORY.md)
promises at least ``1 - p`` for an entropy interval, built from one bound
at per-bound ``p``, and at least ``1 - 3p`` for an MI interval, built from
three. The audit requires that share minus a binomial tolerance.

* **Paths.** Memory stores, memory-mapped stores, warm runs whose
  counters come from a plan cache, and runs resumed from a mid-plan
  checkpoint all go through :meth:`PlanExecutor.execute`, with one
  executor per run seed.
* **Layouts.** Every run also draws its own sampling layout (the layout
  seed is the run seed; an mmap store is built in it), so the runs are
  independent. Runs that share one layout are not (docs/THEORY.md).
* **Schedule.** The paper schedule has a dozen sizes, which would shrink
  the per-bound ``p`` below 0.1. The audit swaps in short schedules
  (the ``short_schedule`` fixture), so entropy queries run at per-bound ``p = 0.2``
  and MI queries at per-bound ``p = 0.1`` (``0.3`` per interval).
* **Power.** The ``spike`` column (a third of the rows share one value,
  every other row is distinct) is near the worst case of both terms of
  the interval: at ``M = N/64`` the plug-in entropy is biased low by
  about 4 bits, which only ``b(α)`` covers, and at ``M = N - 1`` leaving
  out one of the common rows moves the sample entropy by more than half
  of ``λ``. Dropping ``b(α)``, or halving ``λ``, makes this audit fail.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
import pytest

from repro.baselines.exact import exact_entropies, exact_mutual_informations
from repro.core import plan as plan_module
from repro.core.plan import PlanExecutor, QuerySpec, plan_queries
from repro.core.schedule import SampleSchedule
from repro.data.column_store import ColumnStore
from repro.data.mmap_store import MmapStore
from repro.obs import InMemorySink
from repro.obs.events import IterationEvent
from repro.testing.chaos import BoundaryFaultToken, ChaosPlan, SimulatedKillError

#: ``N - 1 = 2^16`` is a schedule size, so the single-row case is audited.
NUM_ROWS = (1 << 16) + 1
#: Entropy schedule: N/64, N/8, N - 1, N; MI schedule: N/4, N - 1, N.
ENTROPY_START, ENTROPY_GROWTH = 1 << 10, 8
MI_START, MI_GROWTH = 1 << 14, 4
#: ``p_f`` split over the schedule's rounds: 0.8 / 4 and 0.9 / (3 * 3).
ENTROPY_FAILURE, MI_FAILURE = 0.8, 0.9
ENTROPY_PER_BOUND, MI_PER_BOUND = 0.2, 0.1
#: Far below any gap between an interval edge and the exact score, so a
#: filter decides an attribute only when its interval misses η = exact.
EPSILON = 1e-9
#: One-sided tolerance in binomial standard deviations.
TOLERANCE_SDS = 3.0
#: Rounding slack in bits: at ``M = N`` the interval is a point, and the
#: engine and the exact scan sum the same entropies in different orders.
ROUNDING_BITS = 1e-9

MEMORY_RUNS = 400
OTHER_RUNS = 24


def _audit_store() -> ColumnStore:
    rng = np.random.default_rng(20_211)
    common = int(0.34 * NUM_ROWS)
    spike = np.concatenate(
        [np.zeros(common, dtype=np.int64), np.arange(1, NUM_ROWS - common + 1)]
    )
    skew = rng.choice(8, size=NUM_ROWS, p=[0.4, 0.2, 0.15, 0.1, 0.06, 0.04, 0.03, 0.02])
    target = rng.integers(0, 4, NUM_ROWS)
    noisy = np.where(rng.random(NUM_ROWS) < 0.6, target, rng.integers(0, 4, NUM_ROWS))
    order = rng.permutation(NUM_ROWS)
    return ColumnStore(
        {
            "spike": spike[order],
            "skew": skew,
            "target": target,
            "noisy": noisy,
        }
    )


@pytest.fixture(scope="module")
def audit_store() -> ColumnStore:
    return _audit_store()


@pytest.fixture
def short_schedule(monkeypatch):
    """Give every query of a plan the audit's short schedule."""

    class ShortSchedule(SampleSchedule):
        @classmethod
        def for_query(cls, population_size, num_attributes, *args, **kwargs):
            if num_attributes == 1:  # an entropy query over one column
                return SampleSchedule(
                    population_size, ENTROPY_START, growth_factor=ENTROPY_GROWTH
                )
            return SampleSchedule(population_size, MI_START, growth_factor=MI_GROWTH)

    monkeypatch.setattr(plan_module, "SampleSchedule", ShortSchedule)


def _entropy_specs(store) -> list[QuerySpec]:
    exact = exact_entropies(store, ["spike", "skew"])
    return [
        QuerySpec(
            kind="filter", score="entropy", threshold=value, epsilon=EPSILON,
            attributes=(name,), name=f"h_{name}",
        )
        for name, value in exact.items()
    ]


def _mi_specs(store) -> list[QuerySpec]:
    exact = exact_mutual_informations(store, "target", ["noisy"])
    return [
        QuerySpec(
            kind="filter", score="mutual_information", threshold=exact["noisy"],
            epsilon=EPSILON, target="target", attributes=("noisy",), name="i_noisy",
        )
    ]


class Coverage:
    """Hits and evaluations per (attribute, sample size)."""

    def __init__(self, exact: dict[str, float], failure: float) -> None:
        self.exact = exact
        self.failure = failure
        self.hits: dict[tuple[str, int], int] = defaultdict(int)
        self.runs: dict[tuple[str, int], int] = defaultdict(int)

    def add_run(self, *sinks: InMemorySink) -> None:
        bounds: dict[tuple[str, int], tuple[float, float]] = {}
        for sink in sinks:
            for event in sink.of_kind("iteration"):
                assert isinstance(event, IterationEvent)
                for name, interval in event.bounds.items():
                    bounds.setdefault((name, event.sample_size), interval)
        for (name, size), (lower, upper) in bounds.items():
            self.runs[name, size] += 1
            exact = self.exact[name]
            self.hits[name, size] += (
                lower - ROUNDING_BITS <= exact <= upper + ROUNDING_BITS
            )

    def shortfalls(self) -> list[str]:
        """Every (attribute, size) whose coverage is below the floor."""
        problems = []
        for key, runs in sorted(self.runs.items()):
            floor = 1.0 - self.failure - TOLERANCE_SDS * math.sqrt(
                self.failure * (1.0 - self.failure) / runs
            )
            share = self.hits[key] / runs
            if share < floor:
                problems.append(
                    f"{key[0]} at M={key[1]}: {self.hits[key]}/{runs} covered"
                    f" ({share:.3f} < {floor:.3f})"
                )
        return problems


def _run(store, specs, seed, failure, **executor_kwargs) -> InMemorySink:
    sink = InMemorySink()
    PlanExecutor(
        store, seed=seed, failure_probability=failure, trace=sink,
        **executor_kwargs,
    ).execute(plan_queries(store, specs))
    return sink


def _audit(store_for, specs, failure, exact, seeds, tmp_path, mode) -> Coverage:
    """Coverage over ``seeds``; ``store_for(seed)`` gives a run's store
    and the executor keywords that select its layout."""
    coverage = Coverage(exact, failure_rate(specs, failure))
    for seed in seeds:
        store, layout = store_for(seed)
        if mode == "cold":
            coverage.add_run(_run(store, specs, seed, failure, **layout))
        elif mode == "warm":
            cache = tmp_path / f"cache-{seed}"
            _run(store, specs, seed, failure, cache_dir=cache, **layout)
            # Another epsilon misses the cached answers, so the engine
            # runs again over counters served from the cache.
            warm_specs = [
                QuerySpec(**{**spec.__dict__, "epsilon": 2 * EPSILON})
                for spec in specs
            ]
            coverage.add_run(
                _run(store, warm_specs, seed, failure, cache_dir=cache, **layout)
            )
        else:  # resumed from a checkpoint taken mid-plan
            kill_at = 3 if specs[0].score == "entropy" else 1
            path = tmp_path / f"run-{seed}.ckpt"
            killed = InMemorySink()
            with pytest.raises(SimulatedKillError):
                PlanExecutor(
                    store, seed=seed, failure_probability=failure,
                    checkpoint_path=path, trace=killed, **layout,
                ).execute(
                    plan_queries(store, specs),
                    cancellation=BoundaryFaultToken(ChaosPlan.kill_at(kill_at)),
                )
            resumed = InMemorySink()
            executor = PlanExecutor.resume(path, store, trace=resumed)
            executor.execute(executor.resumed_plan())
            coverage.add_run(resumed, killed)
    return coverage


def failure_rate(specs, failure: float) -> float:
    """The failure budget of one interval: ``p`` for H, ``3p`` for I."""
    if specs[0].score == "entropy":
        assert failure / 4 == pytest.approx(ENTROPY_PER_BOUND)
        return ENTROPY_PER_BOUND
    assert failure / 9 == pytest.approx(MI_PER_BOUND)
    return 3 * MI_PER_BOUND


@pytest.mark.usefixtures("short_schedule")
@pytest.mark.parametrize(
    "store_kind,mode,runs",
    [
        ("memory", "cold", MEMORY_RUNS),
        ("mmap", "cold", OTHER_RUNS),
        ("memory", "warm", OTHER_RUNS),
        ("memory", "resumed", OTHER_RUNS),
    ],
)
@pytest.mark.parametrize("score", ["entropy", "mutual_information"])
def test_intervals_cover_at_their_stated_rate(
    audit_store, tmp_path, store_kind, mode, runs, score
):
    def store_for(seed: int):
        if store_kind == "mmap":
            disk = MmapStore.from_column_store(
                audit_store, tmp_path / f"store-{seed}", layout_seed=seed
            )
            return disk, {}
        return audit_store, {"layout_seed": seed}

    if score == "entropy":
        specs, failure = _entropy_specs(audit_store), ENTROPY_FAILURE
        exact = {spec.attributes[0]: spec.threshold for spec in specs}
    else:
        specs, failure = _mi_specs(audit_store), MI_FAILURE
        exact = {"noisy": specs[0].threshold}
    seeds = range(1_000, 1_000 + runs)
    coverage = _audit(store_for, specs, failure, exact, seeds, tmp_path, mode)
    # Every size of the schedule below N was evaluated in every run.
    evaluated = {size for _, size in coverage.runs}
    assert NUM_ROWS - 1 in evaluated
    assert min(evaluated) == (ENTROPY_START if score == "entropy" else MI_START)
    assert coverage.shortfalls() == []
