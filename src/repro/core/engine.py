"""Shared adaptive-sampling engine behind all four SWOPE algorithms.

Algorithms 1–4 of the paper differ only in (a) which score they bound —
entropy or mutual information — and (b) which stopping rule they apply —
top-k or filtering. This module factors the common structure:

* **Score providers** (:class:`EntropyScoreProvider`,
  :class:`MutualInformationScoreProvider`) turn an attribute name and a
  sample size into a confidence interval, hiding whether one bound (entropy)
  or three bounds (MI: target, candidate, joint) were consumed.
* **Generic loops** (:func:`adaptive_top_k`, :func:`adaptive_filter`)
  implement the doubling iteration, the stopping rules, and the candidate
  pruning exactly as in the paper's pseudo-code, over any provider.
  ``epsilon=None`` swaps SWOPE's relative-error rule for the exact
  stopping rule of EntropyRank/EntropyFilter (KDD'19, the paper's
  ref. [32]), so the baselines in :mod:`repro.baselines` differ from
  SWOPE only in that rule.

:meth:`repro.core.plan.PlanExecutor.execute_one` — behind the four
:mod:`repro.core.swope` functions and every plan — builds the provider and
schedule, then delegates here. The unifying observation that makes this
factoring exact: for both scores the stopping quantity of the top-k rule,
``2λ + b_max`` (entropy) or ``6λ + b'_max`` (MI), equals the maximum
interval *width* over the current answer set ``R``.
"""

from __future__ import annotations

import heapq
import math
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Callable, Protocol, Union

from repro.core.bounds import (
    ConfidenceInterval,
    MutualInformationInterval,
    entropy_interval,
    entropy_intervals,
    mi_intervals,
)
from repro.core.budget import (
    CancellationToken,
    QueryBudget,
    check_interruption,
    raise_interrupted,
)
from repro.core.estimators import _entropies_from_trusted_counts
from repro.core.results import (
    AttributeEstimate,
    FilterResult,
    GuaranteeStatus,
    RunStats,
    TopKResult,
)
from repro.core.schedule import SampleSchedule
from repro.data.sampling import PrefixSampler
from repro.exceptions import ParameterError, SchemaError
from repro.obs.events import (
    BudgetDegradationEvent,
    IterationEvent,
    PruneEvent,
    QueryEndEvent,
    QueryStartEvent,
    TraceEvent,
)
from repro.obs.metrics import MetricsRegistry, record_query
from repro.obs.sinks import TraceSink

__all__ = [
    "EntropyScoreProvider",
    "LoopCheckpoint",
    "MutualInformationScoreProvider",
    "PhaseTimings",
    "ScoreProvider",
    "adaptive_top_k",
    "adaptive_filter",
    "validate_epsilon",
    "validate_failure_probability",
    "validate_k",
    "validate_threshold",
    "default_failure_probability",
]

Interval = Union[ConfidenceInterval, MutualInformationInterval]


# ----------------------------------------------------------------------
# Parameter validation shared by every public query function
# ----------------------------------------------------------------------
def validate_epsilon(epsilon: float) -> float:
    """Check ``0 < ε < 1`` (Definitions 5–6), finite, and return it."""
    if not math.isfinite(epsilon) or not 0.0 < epsilon < 1.0:
        raise ParameterError(f"epsilon must be a finite value in (0, 1), got {epsilon}")
    return float(epsilon)


def validate_failure_probability(failure_probability: float) -> float:
    """Check ``0 < p_f < 1``, finite, and return it."""
    if not math.isfinite(failure_probability) or not 0.0 < failure_probability < 1.0:
        raise ParameterError(
            f"failure probability must be a finite value in (0, 1),"
            f" got {failure_probability}"
        )
    return float(failure_probability)


def validate_k(k: int) -> int:
    """Check ``k >= 1`` and return it."""
    if int(k) != k or k < 1:
        raise ParameterError(f"k must be a positive integer, got {k}")
    return int(k)


def validate_threshold(threshold: float) -> float:
    """Check ``η >= 0`` (scores are non-negative), finite, and return it.

    NaN and infinity are rejected explicitly: ``float("nan") < 0.0`` is
    False, so a bare range check would admit a NaN threshold into the
    filtering loop, where no interval comparison can ever decide an
    attribute against it.
    """
    if not math.isfinite(threshold) or threshold < 0.0:
        raise ParameterError(f"threshold must be finite and >= 0, got {threshold}")
    return float(threshold)


def default_failure_probability(population_size: int) -> float:
    """The paper's default ``p_f = 1/N`` (Section 6.1), floored for tiny N."""
    return min(0.5, 1.0 / max(population_size, 2))


# ----------------------------------------------------------------------
# Score providers
# ----------------------------------------------------------------------
@dataclass
class PhaseTimings:
    """Cumulative wall-clock split of a provider's work, by phase.

    Providers accumulate into one instance over their lifetime; the
    adaptive loops snapshot it at query start and write the per-query
    deltas into :class:`~repro.core.results.RunStats`, so a
    provider shared across an executor's queries attributes each query
    only its own time.
    """

    #: Seconds spent gathering sample blocks and histogramming them.
    counting_seconds: float = 0.0
    #: Seconds spent turning counts into entropies and Lemma 1–3 intervals.
    bounds_seconds: float = 0.0

    def snapshot(self) -> tuple[float, float]:
        """Current ``(counting_seconds, bounds_seconds)`` for delta accounting."""
        return (self.counting_seconds, self.bounds_seconds)


class ScoreProvider(Protocol):
    """What the generic loops need from a score implementation."""

    #: How many Lemma 3 bounds one interval consumes (1 entropy, 3 MI) —
    #: used to split the failure budget.
    bounds_per_attribute: int

    #: Cumulative counting/bounds wall-clock, snapshotted by the loops.
    timings: PhaseTimings

    def intervals(
        self, attributes: Sequence[str], sample_size: int
    ) -> Mapping[str, Interval]:
        """Confidence intervals of a batch of attributes at ``sample_size``.

        One counting pass and one bounds pass for the whole batch; each
        returned interval is bit-identical to the one a single-attribute
        batch yields for the same attribute and sample size.
        """
        ...  # pragma: no cover - protocol


class EntropyScoreProvider:
    """Lemma 3 entropy intervals over a prefix sampler.

    ``beta_mode`` selects the sensitivity form inside λ: the paper's
    tight closed form (default) or the loose ``2 log2(M)/M`` analysis
    bound (ablation A5).
    """

    bounds_per_attribute = 1

    def __init__(
        self,
        sampler: PrefixSampler,
        failure_per_bound: float,
        *,
        beta_mode: str = "tight",
    ) -> None:
        self._sampler = sampler
        self._p = validate_failure_probability(failure_per_bound)
        self._n = sampler.num_rows
        self._beta_mode = beta_mode
        self.timings = PhaseTimings()

    def intervals(
        self, attributes: Sequence[str], sample_size: int
    ) -> dict[str, ConfidenceInterval]:
        counting_start = time.perf_counter()
        counts = self._sampler.marginal_counts_batch(attributes, sample_size)
        bounds_start = time.perf_counter()
        store = self._sampler.store
        names = list(counts)
        ivs = entropy_intervals(
            _entropies_from_trusted_counts([counts[a] for a in names], sample_size),
            [store.support_size(a) for a in names],
            sample_size,
            self._n,
            self._p,
            beta_mode=self._beta_mode,
        )
        done = time.perf_counter()
        self.timings.counting_seconds += bounds_start - counting_start
        self.timings.bounds_seconds += done - bounds_start
        return dict(zip(names, ivs))


class MutualInformationScoreProvider:
    """Section 4 MI intervals ``I(α_t, α)`` over a prefix sampler.

    The target attribute's entropy interval is computed once per call
    and shared across all candidates of that iteration (as in
    Algorithm 3, line 3).
    """

    bounds_per_attribute = 3

    def __init__(
        self, sampler: PrefixSampler, target: str, failure_per_bound: float
    ) -> None:
        if target not in sampler.store:
            raise SchemaError(f"unknown target attribute {target!r}")
        self._sampler = sampler
        self._target = target
        self._p = validate_failure_probability(failure_per_bound)
        self._n = sampler.num_rows
        self.timings = PhaseTimings()

    @property
    def target(self) -> str:
        """The target attribute ``α_t``."""
        return self._target

    def intervals(
        self, attributes: Sequence[str], sample_size: int
    ) -> dict[str, MutualInformationInterval]:
        for attribute in attributes:
            if attribute == self._target:
                raise SchemaError(
                    f"candidate equals the target attribute {attribute!r}"
                )
        store = self._sampler.store
        counting_start = time.perf_counter()
        # Joints first: once a dense joint sits at sample_size, the
        # candidates' marginals and the target's are read off its
        # running total instead of gathered again.
        joints = self._sampler.joint_counts_batch(
            self._target, attributes, sample_size
        )
        names = list(joints)
        counts = self._sampler.marginal_counts_batch(
            [*names, self._target], sample_size
        )
        bounds_start = time.perf_counter()
        # One batched pass for the target's, the candidates' and the
        # joints' entropies; each is bit-identical to its scalar value.
        entropies = _entropies_from_trusted_counts(
            [
                counts[self._target],
                *(counts[a] for a in names),
                *(joints[a].flat_counts() for a in names),
            ],
            sample_size,
        )
        target_support = store.support_size(self._target)
        target_iv = entropy_interval(
            entropies[0], target_support, sample_size, self._n, self._p
        )
        ivs = mi_intervals(
            target_iv,
            entropies[1 : 1 + len(names)],
            [store.support_size(a) for a in names],
            entropies[1 + len(names) :],
            target_support,
            sample_size,
            self._n,
            self._p,
        )
        done = time.perf_counter()
        self.timings.counting_seconds += bounds_start - counting_start
        self.timings.bounds_seconds += done - bounds_start
        return dict(zip(names, ivs))


# ----------------------------------------------------------------------
# Loop state
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LoopCheckpoint:
    """Resumable state of an adaptive loop at one iteration boundary.

    Captured by the ``checkpoint=`` hook of :func:`adaptive_top_k` /
    :func:`adaptive_filter` *after* the boundary's pruning/retiring, so
    a loop restarted from it (``resume_state=``) replays exactly the
    iterations an uninterrupted run would have executed next — the
    shared sampler's counters carry the rest of the state. Everything
    here is deterministic at a fixed seed; serialisation belongs to
    :mod:`repro.durability.checkpoint`.

    Attributes
    ----------
    kind:
        ``"top_k"`` or ``"filter"`` — which loop the state belongs to
        (resuming into the other loop is a :class:`ParameterError`).
    next_index:
        Schedule index the resumed loop runs first.
    iterations:
        Iterations completed so far (feeds ``RunStats.iterations``).
    live:
        Live candidates (top-k) / still-undecided attributes (filter).
    pruned:
        Candidates pruned so far (top-k; feeds
        ``RunStats.candidates_pruned``).
    included:
        Attributes already included (filter only), in decision order.
    estimates:
        Estimates of every retired attribute (filter only), in decision
        order.
    """

    kind: str
    next_index: int
    iterations: int
    live: tuple[str, ...]
    pruned: int = 0
    included: tuple[str, ...] = ()
    estimates: tuple[AttributeEstimate, ...] = ()


#: The per-iteration-boundary hook the plan executor uses to persist state.
CheckpointHook = Callable[[LoopCheckpoint], None]


def _resume_state_for(
    resume_state: LoopCheckpoint | None, kind: str, schedule: SampleSchedule
) -> LoopCheckpoint | None:
    """Validate a ``resume_state`` against the loop it is entering."""
    if resume_state is None:
        return None
    if resume_state.kind != kind:
        raise ParameterError(
            f"cannot resume a {resume_state.kind!r} loop state in a"
            f" {kind!r} loop"
        )
    if not 0 < resume_state.next_index < len(schedule.sizes):
        raise ParameterError(
            f"resume state points at schedule index {resume_state.next_index},"
            f" outside (0, {len(schedule.sizes)})"
        )
    if not resume_state.live:
        raise ParameterError("resume state has no live attributes")
    return resume_state


def _score_name(provider: ScoreProvider) -> str:
    """Human label of the provider's score, for trace/metric dimensions."""
    return "entropy" if provider.bounds_per_attribute == 1 else "mutual_information"


class _TraceState:
    """Routes the loops' observations to a TraceSink.

    Pre-computes the only flag the hot loop consults: ``active`` —
    whether structured events must be constructed at all. A disabled
    sink (:class:`repro.obs.sinks.NullSink`) and ``trace=None`` are
    indistinguishable here, which is what makes the default path
    zero-overhead: no event objects, no bounds dicts, no emit calls.
    """

    __slots__ = ("sink", "active", "events")

    def __init__(self, trace: TraceSink | None) -> None:
        self.sink = trace if trace is not None and trace.enabled else None
        self.active = self.sink is not None
        self.events = 0

    def emit(self, event: TraceEvent) -> None:
        assert self.sink is not None
        self.sink.emit(event)
        self.events += 1


# ----------------------------------------------------------------------
# Generic adaptive loops
# ----------------------------------------------------------------------
@dataclass
class _LoopContext:
    """Bookkeeping shared by the two loops."""

    sampler: PrefixSampler
    provider: ScoreProvider
    stats: RunStats
    started_at: float
    cells_at_start: int = 0
    timings_at_start: tuple[float, float] = (0.0, 0.0)
    saved_at_start: int = 0

    def finish(self, iterations: int, sample_size: int) -> RunStats:
        self.stats.iterations = iterations
        self.stats.final_sample_size = sample_size
        self.stats.population_size = self.sampler.num_rows
        self.stats.cells_scanned = self.sampler.cells_scanned
        # Unlike the cumulative cells meter, saved cells are reported as
        # this query's own delta — that is what cache metrics sum up.
        self.stats.cells_saved = self.sampler.cells_saved - self.saved_at_start
        self.stats.wall_seconds = time.perf_counter() - self.started_at
        counting_before, bounds_before = self.timings_at_start
        timings = self.provider.timings
        self.stats.counting_seconds = timings.counting_seconds - counting_before
        self.stats.bounds_seconds = timings.bounds_seconds - bounds_before
        return self.stats

    def interruption(
        self,
        budget: QueryBudget | None,
        cancellation: CancellationToken | None,
        next_sample_size: int,
    ) -> str | None:
        """Stopping reason forced by cancellation or the budget, if any.

        Called once per adaptive iteration, between completing one
        sample size and growing to the next, so every query completes at
        least one iteration and always holds valid intervals to answer
        from. Cancellation is an explicit caller request and takes
        precedence over budget limits. The cell budget is measured
        against this query's own reads (``cells_at_start`` delta), so a
        sampler shared across queries is budgeted per query, not
        cumulatively.
        Delegates to :func:`repro.core.budget.check_interruption`, the
        checkpoint shared with the exact-stopping baselines.
        """
        return check_interruption(
            budget,
            cancellation,
            elapsed_seconds=time.perf_counter() - self.started_at,
            cells_used=self.sampler.cells_scanned - self.cells_at_start,
            next_sample_size=next_sample_size,
        )


def _estimate_from_interval(
    attribute: str, iv: Interval, sample_size: int
) -> AttributeEstimate:
    return AttributeEstimate(
        attribute=attribute,
        estimate=max(iv.lower, min(iv.upper, iv.midpoint)),
        lower=iv.lower,
        upper=iv.upper,
        sample_size=sample_size,
    )


def _filter_decision(
    iv: Interval, threshold: float, epsilon: float | None, final_round: bool
) -> bool | None:
    """Include (True), exclude (False) or keep sampling (None) one attribute.

    With ``epsilon`` set this is SWOPE's rule (see :func:`adaptive_filter`).
    With ``epsilon=None`` it is EntropyFilter's exact rule: include once
    ``lower > η``, exclude once ``upper < η``. A score exactly at ``η``
    satisfies neither strict inequality, so on the final round (``M = N``,
    exact bounds) the comparison is closed as ``estimate >= η`` — the
    exact answer's threshold.
    """
    if epsilon is None:
        if iv.lower > threshold:
            return True
        if iv.upper < threshold:
            return False
        return iv.estimate >= threshold if final_round else None
    if iv.width < 2.0 * epsilon * threshold:
        return iv.midpoint >= threshold
    if iv.lower >= (1.0 - epsilon) * threshold:
        return True
    if iv.upper < (1.0 + epsilon) * threshold:
        return False
    return None


def _first_index(
    ctx: _LoopContext,
    schedule: SampleSchedule,
    start: int,
    decision_floor: int,
    budget: QueryBudget | None,
    cancellation: CancellationToken | None,
    target: str | None,
    attributes: Sequence[str],
) -> int:
    """Schedule index at which a loop evaluates its first intervals.

    That is ``decision_floor`` when the loop starts below it: no rule
    can fire at the sizes in between, so the first evaluation extends
    the counters over them in one block and they are never boundaries.
    Cancellation and the deadline are polled once, here. A cell budget
    or a sample cap that would have stopped a loop stepping through
    those sizes stops the jump at the same size: an MI interval extends
    the target's marginal, each candidate's marginal and each (target,
    candidate) joint, so the cells up to every size are known.
    """
    if not 0 <= decision_floor < len(schedule.sizes):
        raise ParameterError(
            f"decision floor {decision_floor} outside the schedule's"
            f" {len(schedule.sizes)} sizes"
        )
    if decision_floor <= start:
        return start
    if target is None:
        raise ParameterError("a decision floor needs the MI query's target")
    sizes = schedule.sizes
    if ctx.interruption(budget, cancellation, sizes[start + 1]) is not None:
        return start
    if budget is None:
        return decision_floor
    used = ctx.sampler.cells_scanned - ctx.cells_at_start
    marginals = [target, *attributes]
    joints = [(target, a) for a in attributes]
    cap = budget.max_sample_size
    for index in range(start, decision_floor):
        if cap is not None and sizes[index + 1] > cap:
            return index
        if budget.max_cells is not None and (
            used + ctx.sampler.cells_to_extend(marginals, joints, sizes[index])
            >= budget.max_cells
        ):
            return index
    return decision_floor


def _kth_largest(values: list[float], k: int) -> float:
    """The k-th largest element of ``values`` (1-based k, k <= len).

    Heap-based selection: ``O(n log k)`` instead of the ``O(n log n)``
    full sort — this runs every iteration over all live candidates.
    """
    return heapq.nlargest(k, values)[-1]


def adaptive_top_k(
    provider: ScoreProvider,
    sampler: PrefixSampler,
    candidates: list[str],
    k: int,
    epsilon: float | None,
    schedule: SampleSchedule,
    *,
    prune: bool = True,
    target: str | None = None,
    trace: TraceSink | None = None,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
    metrics: MetricsRegistry | None = None,
    checkpoint: CheckpointHook | None = None,
    resume_state: LoopCheckpoint | None = None,
    decision_floor: int = 0,
) -> TopKResult:
    """Generic adaptive top-k loop (Algorithms 1 and 3, and EntropyRank).

    Parameters
    ----------
    provider:
        Score implementation (entropy or MI).
    sampler:
        The prefix sampler over the queried store (also the cost meter).
    candidates:
        Candidate attribute names (for MI: all attributes except the
        target).
    k:
        Number of attributes to return; clamped to ``len(candidates)``.
    epsilon:
        Relative-error parameter of Definition 5, or ``None`` for the
        exact stopping rule of the EntropyRank baseline (see Notes).
    schedule:
        Sample-size growth schedule.
    prune:
        Apply the candidate-pruning step (Algorithm 1, lines 15–17). The
        ablation benches switch this off.
    target:
        Recorded on the result for MI queries.
    budget:
        Optional :class:`~repro.core.budget.QueryBudget` checked once
        per iteration; on exhaustion the loop returns a best-effort
        answer built from the current intervals (still valid Lemma 3
        bounds) with ``result.guarantee`` recording why it stopped.
    cancellation:
        Optional :class:`~repro.core.budget.CancellationToken` observed
        at the same per-iteration checkpoint.
    strict:
        Raise :class:`~repro.exceptions.BudgetExceededError` /
        :class:`~repro.exceptions.QueryCancelledError` (carrying the
        best-effort result as ``.partial``) instead of returning a
        degraded answer.
    trace:
        Any :class:`~repro.obs.sinks.TraceSink`, which receives the
        structured event stream (``query_start``, ``iteration``,
        ``prune``, ``budget_degradation``, ``query_end``) — including for
        degraded and strict-raised runs. ``None`` or a disabled sink
        costs nothing.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; the run's
        accounting feeds the standard instruments via
        :func:`repro.obs.metrics.record_query`.
    checkpoint:
        Optional hook called once per iteration boundary (after pruning,
        only when the loop will continue) with the
        :class:`LoopCheckpoint` a resumed loop needs; the plan executor
        persists it via :mod:`repro.durability.checkpoint`.
    resume_state:
        A previously captured :class:`LoopCheckpoint` to restart from:
        the loop skips the already-completed iterations (their counters
        live in the shared sampler) and emits no ``query_start`` event —
        the interrupted run already emitted it.
    decision_floor:
        Schedule index of the first size at which a rule of this MI
        query can fire (:func:`repro.core.bounds.mi_decision_floor`).
        A loop starting below it evaluates first at the floor: the
        sizes in between count in ``iterations`` but get no intervals,
        no event, no poll and no checkpoint (see :func:`_first_index`).
        Answers, estimates and cells are those of a loop that stepped
        through every size. Needs ``target``.

    Notes
    -----
    The stopping rule at each iteration is
    ``(Ū_k - w_max) / Ū_k >= 1 - ε`` where ``Ū_k`` is the k-th largest
    upper bound over the candidates and ``w_max`` the largest interval
    width within the current answer set ``R`` — equal to ``2λ + b_max``
    for entropy and ``6λ + b'_max`` for MI. A non-positive ``Ū_k`` means
    every remaining score is exactly zero, so any k attributes satisfy
    Definition 5 and the loop stops.

    With ``epsilon=None`` the candidates are ranked by *lower* bound and
    the loop stops once the k-th largest lower bound is at least the
    (k+1)-th largest upper bound (or at most k candidates are live): the
    answer is then provably the exact top-k. A converged exact run
    carries ``result.guarantee = None`` — exactness needs no certificate —
    and a truncated one reports ``requested_epsilon=0.0``.
    """
    exact = epsilon is None
    requested = 0.0 if epsilon is None else validate_epsilon(epsilon)
    k = validate_k(k)
    if not candidates:
        raise ParameterError("top-k query needs at least one candidate attribute")
    k_effective = min(k, len(candidates))
    resume_state = _resume_state_for(resume_state, "top_k", schedule)
    ctx = _LoopContext(
        sampler,
        provider,
        RunStats(),
        time.perf_counter(),
        sampler.cells_scanned,
        provider.timings.snapshot(),
        sampler.cells_saved,
    )
    tracer = _TraceState(trace)
    if tracer.active and resume_state is None:
        tracer.emit(
            QueryStartEvent(
                kind="top_k",
                score=_score_name(provider),
                candidates=tuple(candidates),
                population_size=sampler.num_rows,
                epsilon=requested,
                k=k,
                target=target,
                schedule=tuple(schedule.sizes),
            )
        )
    live = list(candidates)
    iterations = 0
    start_index = 0
    if resume_state is not None:
        live = list(resume_state.live)
        iterations = resume_state.iterations
        start_index = resume_state.next_index
        ctx.stats.candidates_pruned = resume_state.pruned
    answer: list[tuple[str, Interval]] = []
    stop_reason: str | None = None
    first = _first_index(
        ctx, schedule, start_index, decision_floor, budget, cancellation,
        target, live,
    )
    iterations += first - start_index
    sample_size = schedule.sizes[first]
    for index in range(first, len(schedule.sizes)):
        sample_size = schedule.sizes[index]
        iterations += 1
        intervals = provider.intervals(live, sample_size)
        if exact:  # EntropyRank ranks by lower bound, SWOPE by upper.
            ranked = sorted(live, key=lambda a: intervals[a].lower, reverse=True)
        else:
            ranked = sorted(live, key=lambda a: intervals[a].upper, reverse=True)
        answer = [(a, intervals[a]) for a in ranked[:k_effective]]
        if exact:
            stopped = len(live) <= k_effective or answer[-1][1].lower >= (
                _kth_largest([intervals[a].upper for a in live], k_effective + 1)
            )
        else:
            upper_k = answer[-1][1].upper
            width_max = max(iv.width for _, iv in answer)
            stopped = upper_k <= 0.0 or (
                (upper_k - width_max) / upper_k >= 1.0 - requested
            )
        if tracer.active:
            tracer.emit(
                IterationEvent(
                    index=index,
                    sample_size=sample_size,
                    candidates=tuple(live),
                    bounds={a: (iv.lower, iv.upper) for a, iv in intervals.items()},
                    stopped=stopped,
                )
            )
        if stopped:
            stop_reason = "converged"
            break
        if index == len(schedule.sizes) - 1:
            # M reached N: λ = b = 0 so either rule must have fired (the
            # bounds are exact, so the ranking is the answer). Defensive.
            break  # pragma: no cover
        stop_reason = ctx.interruption(budget, cancellation, schedule.sizes[index + 1])
        if stop_reason is not None:
            if tracer.active:
                tracer.emit(
                    BudgetDegradationEvent(
                        sample_size=sample_size, reason=stop_reason
                    )
                )
            break
        if prune and len(live) > k_effective:
            lower_k = _kth_largest([intervals[a].lower for a in live], k_effective)
            survivors = [a for a in live if intervals[a].upper >= lower_k]
            gone = [a for a in live if intervals[a].upper < lower_k]
            ctx.stats.candidates_pruned += len(gone)
            if gone and tracer.active:
                tracer.emit(
                    PruneEvent(
                        sample_size=sample_size,
                        pruned=tuple(gone),
                        survivors=len(survivors),
                    )
                )
            live = survivors
        if checkpoint is not None:
            checkpoint(
                LoopCheckpoint(
                    kind="top_k",
                    next_index=index + 1,
                    iterations=iterations,
                    live=tuple(live),
                    pruned=ctx.stats.candidates_pruned,
                )
            )
    stats = ctx.finish(iterations, sample_size)
    estimates = [
        _estimate_from_interval(a, iv, sample_size) for a, iv in answer
    ]
    reason = stop_reason if stop_reason is not None else "converged"
    # Back-solve the achieved ε from the stopping quantity: the answer
    # satisfies Definition 5 with ε' = w_max / Ū_k (0 when every
    # remaining score is exactly zero). Ū_k is the smallest upper bound
    # in R — the last one when R is ranked by upper bound.
    upper_k = min(iv.upper for _, iv in answer)
    width_max = max(iv.width for _, iv in answer)
    achieved = 0.0 if upper_k <= 0.0 else width_max / upper_k
    guarantee = GuaranteeStatus(
        guarantee_met=reason == "converged",
        stopping_reason=reason,
        requested_epsilon=requested,
        achieved_epsilon=achieved,
    )
    result = TopKResult(
        attributes=[a for a, _ in answer],
        estimates=estimates,
        stats=stats,
        k=k,
        target=target,
        guarantee=None if exact and guarantee.guarantee_met else guarantee,
    )
    if tracer.active:
        tracer.emit(
            QueryEndEvent(
                stopping_reason=reason,
                guarantee_met=guarantee.guarantee_met,
                requested_epsilon=requested,
                achieved_epsilon=achieved,
                iterations=iterations,
                final_sample_size=sample_size,
                cells_scanned=stats.cells_scanned,
                answer=tuple(a for a, _ in answer),
            )
        )
    stats.trace_event_count = tracer.events
    if metrics is not None:
        record_query(
            metrics,
            kind="top_k",
            score=_score_name(provider),
            stats=stats,
            guarantee=guarantee,
        )
    if strict and not guarantee.guarantee_met:
        raise_interrupted(reason, result)
    return result


def adaptive_filter(
    provider: ScoreProvider,
    sampler: PrefixSampler,
    candidates: list[str],
    threshold: float,
    epsilon: float | None,
    schedule: SampleSchedule,
    *,
    target: str | None = None,
    trace: TraceSink | None = None,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
    metrics: MetricsRegistry | None = None,
    checkpoint: CheckpointHook | None = None,
    resume_state: LoopCheckpoint | None = None,
    decision_floor: int = 0,
) -> FilterResult:
    """Generic adaptive filtering loop (Algorithms 2 and 4, and EntropyFilter).

    For each undecided attribute at each sample size, in the paper's order:

    1. if the interval width ``< 2εη``, decide by comparing the interval
       midpoint against ``η`` and retire the attribute;
    2. else if the lower bound ``>= (1 - ε)η``, include and retire;
    3. else if the upper bound ``< (1 + ε)η``, exclude and retire.

    The loop ends when no attribute is undecided or the sample is the whole
    dataset (at which point widths are zero and rule 1 or 2 retires
    everything). ``epsilon=None`` selects EntropyFilter's exact rule
    instead (see :func:`_filter_decision`); a converged exact run carries
    ``result.guarantee = None``.
    ``budget``/``cancellation``/``strict``/``trace``/``metrics``/
    ``checkpoint``/``resume_state``/``decision_floor`` behave as in
    :func:`adaptive_top_k`; a truncated run resolves the still-undecided
    attributes best-effort by interval midpoint and lists them in
    ``result.guarantee.undecided``. A filter checkpoint additionally
    carries the already-included attributes and retired estimates, in
    decision order, so a resumed run's final ordering is bit-identical.
    """
    epsilon = None if epsilon is None else validate_epsilon(epsilon)
    requested = 0.0 if epsilon is None else epsilon
    threshold = validate_threshold(threshold)
    if not candidates:
        raise ParameterError("filtering query needs at least one candidate attribute")
    resume_state = _resume_state_for(resume_state, "filter", schedule)
    ctx = _LoopContext(
        sampler,
        provider,
        RunStats(),
        time.perf_counter(),
        sampler.cells_scanned,
        provider.timings.snapshot(),
        sampler.cells_saved,
    )
    tracer = _TraceState(trace)
    if tracer.active and resume_state is None:
        tracer.emit(
            QueryStartEvent(
                kind="filter",
                score=_score_name(provider),
                candidates=tuple(candidates),
                population_size=sampler.num_rows,
                epsilon=requested,
                threshold=threshold,
                target=target,
                schedule=tuple(schedule.sizes),
            )
        )
    undecided = list(candidates)
    included: list[str] = []
    estimates: dict[str, AttributeEstimate] = {}
    last_intervals: dict[str, Interval] = {}
    iterations = 0
    start_index = 0
    if resume_state is not None:
        undecided = list(resume_state.live)
        included = list(resume_state.included)
        estimates = {e.attribute: e for e in resume_state.estimates}
        iterations = resume_state.iterations
        start_index = resume_state.next_index
    stop_reason: str | None = None
    first = _first_index(
        ctx, schedule, start_index, decision_floor, budget, cancellation,
        target, undecided,
    )
    iterations += first - start_index
    sample_size = schedule.sizes[first]
    for index in range(first, len(schedule.sizes)):
        sample_size = schedule.sizes[index]
        iterations += 1
        final_round = index == len(schedule.sizes) - 1
        still: list[str] = []
        decided_now: list[str] = []
        intervals = provider.intervals(undecided, sample_size)
        for attribute in undecided:
            iv = intervals[attribute]
            last_intervals[attribute] = iv
            include = _filter_decision(iv, threshold, epsilon, final_round)
            if include is None:
                still.append(attribute)
                continue
            if include:
                included.append(attribute)
            decided_now.append(attribute)
            estimates[attribute] = _estimate_from_interval(attribute, iv, sample_size)
        undecided = still
        if tracer.active:
            tracer.emit(
                IterationEvent(
                    index=index,
                    sample_size=sample_size,
                    candidates=tuple(intervals),
                    bounds={a: (iv.lower, iv.upper) for a, iv in intervals.items()},
                    decided=tuple(decided_now),
                    stopped=not undecided,
                )
            )
        if not undecided:
            stop_reason = "converged"
            break
        if not final_round:
            stop_reason = ctx.interruption(
                budget, cancellation, schedule.sizes[index + 1]
            )
            if stop_reason is not None:
                if tracer.active:
                    tracer.emit(
                        BudgetDegradationEvent(
                            sample_size=sample_size, reason=stop_reason
                        )
                    )
                break
            if checkpoint is not None:
                checkpoint(
                    LoopCheckpoint(
                        kind="filter",
                        next_index=index + 1,
                        iterations=iterations,
                        live=tuple(undecided),
                        included=tuple(included),
                        estimates=tuple(estimates[a] for a in estimates),
                    )
                )
    if stop_reason is None:
        # At M = N all widths are 0, so rule 1 (η > 0) or rule 2 (η = 0)
        # — or the exact rule's closing comparison — retires every
        # attribute; reaching here with undecided attributes would
        # indicate a bounds bug.
        assert not undecided, "filtering loop ended with undecided attributes"
        stop_reason = "converged"
    undecided_at_stop = tuple(undecided)
    for attribute in undecided_at_stop:
        # Best-effort resolution of the attributes the budget cut off:
        # decide by midpoint, keep the (still valid) current interval.
        iv = last_intervals[attribute]
        if iv.midpoint >= threshold:
            included.append(attribute)
        estimates[attribute] = _estimate_from_interval(attribute, iv, sample_size)
    achieved = requested
    if undecided_at_stop:
        if threshold > 0.0:
            # Smallest ε' whose width rule (width < 2ε'η) would have
            # decided every remaining attribute at the final intervals.
            worst = max(last_intervals[a].width for a in undecided_at_stop)
            achieved = max(requested, worst / (2.0 * threshold))
        else:  # pragma: no cover - η = 0 decides every attribute instantly
            achieved = float("inf")
    guarantee = GuaranteeStatus(
        guarantee_met=stop_reason == "converged",
        stopping_reason=stop_reason,
        requested_epsilon=requested,
        achieved_epsilon=achieved,
        undecided=undecided_at_stop,
    )
    included.sort(key=lambda a: estimates[a].estimate, reverse=True)
    stats = ctx.finish(iterations, sample_size)
    result = FilterResult(
        attributes=included,
        estimates=estimates,
        stats=stats,
        threshold=threshold,
        target=target,
        guarantee=None if epsilon is None and guarantee.guarantee_met else guarantee,
    )
    if tracer.active:
        tracer.emit(
            QueryEndEvent(
                stopping_reason=stop_reason,
                guarantee_met=guarantee.guarantee_met,
                requested_epsilon=requested,
                achieved_epsilon=achieved,
                iterations=iterations,
                final_sample_size=sample_size,
                cells_scanned=stats.cells_scanned,
                answer=tuple(included),
                undecided=undecided_at_stop,
            )
        )
    stats.trace_event_count = tracer.events
    if metrics is not None:
        record_query(
            metrics,
            kind="filter",
            score=_score_name(provider),
            stats=stats,
            guarantee=guarantee,
        )
    if strict and not guarantee.guarantee_met:
        raise_interrupted(stop_reason, result)
    return result
