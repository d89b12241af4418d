"""Structured trace events emitted by the adaptive SWOPE engine.

Every adaptive query can narrate its own execution as a stream of typed
events: one ``query_start``, one ``iteration`` per sample size visited,
zero or more ``prune`` / ``budget_degradation`` events, and exactly one
``query_end`` — even for runs truncated by a budget or raised in strict
mode. Events are **deterministic**: they carry no wall-clock timestamps
and every field is a pure function of the seeded shuffle, so two runs at
the same seed serialise to byte-identical JSONL. That determinism is
what makes the golden-trace regression suite
(``tests/test_golden_traces.py``) possible; wall-clock quantities go to
the :mod:`repro.obs.metrics` layer instead.

The wire schema is frozen under :data:`TRACE_SCHEMA_VERSION`. Any change
to an event's field set, field meaning, or serialisation is a schema
change and must bump the version *and* regenerate the committed golden
traces (``pytest --update-golden``); CI enforces the pairing via
``scripts/check_trace_schema.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

__all__ = [
    "EVENT_KINDS",
    "TRACE_SCHEMA_VERSION",
    "TraceEvent",
    "QueryStartEvent",
    "IterationEvent",
    "PruneEvent",
    "BudgetDegradationEvent",
    "QueryEndEvent",
    "PlanStartEvent",
    "QueryRetiredEvent",
    "PlanEndEvent",
    "CheckpointSavedEvent",
    "PlanResumedEvent",
    "ScheduleChosenEvent",
    "CacheHitEvent",
    "CacheMissEvent",
    "AnswerReusedEvent",
    "header_record",
]

#: Version of the trace wire schema. Bump on any event-shape change and
#: regenerate the golden traces in the same commit.
#: v2: plan-level events (``plan_start``/``query_retired``/``plan_end``)
#: emitted by :class:`repro.core.plan.PlanExecutor`.
#: v3: durability events (``checkpoint_saved``/``plan_resumed``) emitted
#: by checkpointing/resumed plan runs.
#: v4: planner-v2 events: cost-based scheduling (``schedule_chosen``)
#: and plan-cache outcomes (``cache_hit``/``cache_miss``/``answer_reused``).
TRACE_SCHEMA_VERSION = 4

#: Every ``event`` discriminator the schema admits (header excluded).
#: ``scripts/check_trace_schema.py`` validates golden traces against it.
EVENT_KINDS = (
    "query_start",
    "iteration",
    "prune",
    "budget_degradation",
    "query_end",
    "plan_start",
    "query_retired",
    "plan_end",
    "checkpoint_saved",
    "plan_resumed",
    "schedule_chosen",
    "cache_hit",
    "cache_miss",
    "answer_reused",
)


def header_record() -> dict[str, object]:
    """The first record of every JSONL trace: identifies the schema."""
    return {"event": "header", "schema_version": TRACE_SCHEMA_VERSION}


@dataclass(frozen=True)
class TraceEvent:
    """Base class of all trace events.

    Subclasses set the class-level ``event`` discriminator (the value of
    the ``"event"`` key on the wire) and add their payload fields.
    ``as_dict()`` is the single serialisation point: sinks must not
    invent their own field spellings.
    """

    event: ClassVar[str] = "event"

    def as_dict(self) -> dict[str, object]:
        """JSON-ready payload, ``event`` discriminator included."""
        out: dict[str, object] = {"event": type(self).event}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = list(value)
            out[name] = value
        return out


@dataclass(frozen=True)
class QueryStartEvent(TraceEvent):
    """Emitted once, before the first adaptive iteration.

    Attributes
    ----------
    kind:
        ``"top_k"`` or ``"filter"`` — which stopping rule runs.
    score:
        ``"entropy"`` or ``"mutual_information"``.
    candidates:
        Candidate attribute names, in query order.
    population_size:
        ``N`` of the queried dataset.
    epsilon:
        The requested error parameter.
    k:
        Requested ``k`` for top-k queries, ``None`` for filtering.
    threshold:
        Threshold ``η`` for filtering queries, ``None`` for top-k.
    target:
        MI target attribute, ``None`` for entropy queries.
    schedule:
        Every sample size the schedule could visit.
    """

    event: ClassVar[str] = "query_start"

    kind: str
    score: str
    candidates: tuple[str, ...]
    population_size: int
    epsilon: float
    k: int | None = None
    threshold: float | None = None
    target: str | None = None
    schedule: tuple[int, ...] = ()


@dataclass(frozen=True)
class IterationEvent(TraceEvent):
    """One adaptive iteration: the intervals computed at one sample size.

    ``bounds`` maps each live attribute to ``[lower, upper]``;
    ``decided`` lists attributes retired this iteration (filtering only —
    top-k retires candidates via :class:`PruneEvent`); ``stopped`` is
    whether the paper's stopping rule fired at this sample size.
    """

    event: ClassVar[str] = "iteration"

    index: int
    sample_size: int
    candidates: tuple[str, ...]
    bounds: dict[str, tuple[float, float]]
    decided: tuple[str, ...] = ()
    stopped: bool = False

    def as_dict(self) -> dict[str, object]:
        out = super().as_dict()
        out["bounds"] = {a: list(b) for a, b in self.bounds.items()}
        return out


@dataclass(frozen=True)
class PruneEvent(TraceEvent):
    """Top-k candidate pruning (Algorithm 1, lines 15-17) fired."""

    event: ClassVar[str] = "prune"

    sample_size: int
    pruned: tuple[str, ...]
    survivors: int


@dataclass(frozen=True)
class BudgetDegradationEvent(TraceEvent):
    """A budget limit or cancellation truncated the run.

    ``reason`` is one of the non-``converged`` members of
    :data:`repro.core.results.STOPPING_REASONS`; ``sample_size`` is the
    last sample size whose intervals the degraded answer is built from.
    """

    event: ClassVar[str] = "budget_degradation"

    sample_size: int
    reason: str


@dataclass(frozen=True)
class PlanStartEvent(TraceEvent):
    """Emitted once by :class:`~repro.core.plan.PlanExecutor.execute`.

    Describes the whole batch before the first query runs: query names
    in execution order, the ordered union of marginal counters the plan
    will touch, and every ``(target, candidates)`` joint group MI specs
    require. Deterministic, like every trace event: no wall-clock.
    """

    event: ClassVar[str] = "plan_start"

    num_queries: int
    queries: tuple[str, ...]
    population_size: int
    marginal_attributes: tuple[str, ...] = ()
    joint_targets: tuple[tuple[str, tuple[str, ...]], ...] = ()


@dataclass(frozen=True)
class QueryRetiredEvent(TraceEvent):
    """One plan query satisfied its stopping rule (or degraded out).

    ``marginal_cells`` is the query's *incremental* cost over the shared
    sampler — the cells the batch paid beyond what earlier queries of
    the same plan had already counted.
    """

    event: ClassVar[str] = "query_retired"

    name: str
    index: int
    stopping_reason: str
    guarantee_met: bool
    final_sample_size: int
    marginal_cells: int
    answer: tuple[str, ...] = ()


@dataclass(frozen=True)
class PlanEndEvent(TraceEvent):
    """Emitted exactly once per executed plan, even on strict truncation.

    ``cells_scanned`` is the plan-wide total over the shared sampler;
    ``sample_floor`` is the ratcheted prefix size the executor will
    start its next query from.
    """

    event: ClassVar[str] = "plan_end"

    queries_completed: int
    total_queries: int
    cells_scanned: int
    sample_floor: int


@dataclass(frozen=True)
class CheckpointSavedEvent(TraceEvent):
    """A plan checkpoint was durably written (atomic write-rename).

    Deterministic like every trace event: ``boundary`` is the global
    iteration-boundary counter of the executor (it survives resume, so a
    resumed run's cadence continues the original's), ``query`` names the
    in-flight query (``None`` for the plan-start and plan-completion
    checkpoints). Payload size and save latency are wall-clock-adjacent
    and go to the metrics layer
    (:func:`repro.obs.metrics.record_checkpoint`), not here.
    """

    event: ClassVar[str] = "checkpoint_saved"

    boundary: int
    queries_completed: int
    query: str | None = None


@dataclass(frozen=True)
class PlanResumedEvent(TraceEvent):
    """A plan run restarted from a checkpoint instead of from scratch.

    Emitted once, directly after the header of the resumed run's trace —
    the counterpart of :class:`PlanStartEvent`, which a resumed run does
    *not* re-emit (the interrupted run already emitted it). ``boundary``
    is the iteration-boundary counter at the restored snapshot;
    ``query`` the in-flight query the run continues with (``None`` when
    the checkpoint captured a completed plan).
    """

    event: ClassVar[str] = "plan_resumed"

    queries_completed: int
    total_queries: int
    boundary: int
    sample_floor: int
    population_size: int
    query: str | None = None


@dataclass(frozen=True)
class ScheduleChosenEvent(TraceEvent):
    """The planner's cost model ordered the batch (v4).

    Emitted once per plan, directly after :class:`PlanStartEvent`, when
    :func:`~repro.core.plan.plan_queries` scheduled the batch instead of
    keeping submission order. ``queries`` is the chosen execution order,
    ``submission`` the same names in submission order, and
    ``estimated_cells`` the cost model's per-query predictions aligned
    with ``queries``. ``cost_model`` labels the predictor
    (``"analytic"``). Deterministic: the analytic model reads only the
    store schema and the query shapes.
    """

    event: ClassVar[str] = "schedule_chosen"

    order: str
    queries: tuple[str, ...]
    submission: tuple[str, ...]
    estimated_cells: tuple[int, ...] = ()
    cost_model: str = "analytic"


@dataclass(frozen=True)
class CacheHitEvent(TraceEvent):
    """The plan cache answered a query without running it (v4).

    ``mode`` is ``"exact"`` or ``"semantic"``; ``source_param`` is the
    stored entry's parameter (η or k) that served the request,
    ``requested_param`` the query's own.
    """

    event: ClassVar[str] = "cache_hit"

    name: str
    kind: str
    score: str
    mode: str
    source_param: float
    requested_param: float


@dataclass(frozen=True)
class CacheMissEvent(TraceEvent):
    """Answer reuse was consulted and declined; the query runs fresh (v4).

    Emitted only when a cache was attached — cacheless runs stay silent.
    A miss also covers semantic-replay refusal (a dominating entry
    existed but its history could not prove the derived answer).
    """

    event: ClassVar[str] = "cache_miss"

    name: str
    kind: str
    score: str


@dataclass(frozen=True)
class AnswerReusedEvent(TraceEvent):
    """The served answer, in place of the run it replaced (v4).

    The deterministic mirror of :class:`QueryEndEvent` for cache hits:
    the loop-shape fields describe the stored (or replayed) run,
    ``cells_saved`` the work the serve avoided (0 for semantic replays,
    which avoid *all* counting but whose saved cells were already
    reported by the run that populated the entry).
    """

    event: ClassVar[str] = "answer_reused"

    name: str
    mode: str
    iterations: int
    final_sample_size: int
    cells_saved: int
    answer: tuple[str, ...] = ()


@dataclass(frozen=True)
class QueryEndEvent(TraceEvent):
    """Emitted exactly once per query, even on strict-mode truncation.

    Mirrors the result's :class:`~repro.core.results.GuaranteeStatus`
    and the deterministic parts of its
    :class:`~repro.core.results.RunStats` (wall-clock timings are
    deliberately absent — they go to the metrics layer).
    """

    event: ClassVar[str] = "query_end"

    stopping_reason: str
    guarantee_met: bool
    requested_epsilon: float
    achieved_epsilon: float
    iterations: int
    final_sample_size: int
    cells_scanned: int
    answer: tuple[str, ...]
    undecided: tuple[str, ...] = field(default=())
