"""Query plans: declarative specs, a planner, and a shared-scan executor.

The paper's four algorithms share one substrate — a prefix of the
store's sampling layout and the counts over it — so a *batch* of
entropy/MI top-k and filtering queries over the same table should share
every counting pass. This module is that batch-serving layer:

* :class:`QuerySpec` — one query, declaratively: ``kind`` (``top_k`` or
  ``filter``) × ``score`` (``entropy`` or ``mutual_information``) plus
  the per-kind parameters (``k``, ``threshold``, ``epsilon``,
  ``target``, ``attributes``). :func:`load_plan` parses a JSON file of
  specs for the CLI's ``--queries`` batch mode.
* :func:`plan_queries` — validate, normalise, and dedup a spec list
  into a :class:`QueryPlan`: every candidate list resolved against the
  store, epsilons filled from the paper defaults, and the plan's count
  requirements grouped into ``marginal_attributes`` (ordered union of
  marginal counters) and ``joint_targets`` (per-target joint groups).
  Structural problems raise :class:`~repro.exceptions.PlanError` here,
  not as late ``KeyError``\\ s deep in the adaptive loop.
* :class:`PlanExecutor` — run plans over one shared, counter-retaining
  :class:`~repro.data.sampling.PrefixSampler`. Each needed count is
  fetched exactly once via the batched backend API: the first query
  pays for the prefix counters it grows, later queries reuse them and
  only pay for counters (or prefix extensions) the batch has not seen.
  Queries retire individually as their Definition 5/6 stopping rules
  fire; per-query failure budgets stay per-query, so every result keeps
  its own paper guarantee. Budgets and cancellation apply plan-wide,
  degrading per-query with an honest
  :class:`~repro.core.results.GuaranteeStatus`. A single query is a
  one-spec run (:meth:`PlanExecutor.execute_one`, or one of the four
  query methods); the :mod:`repro.core.swope` functions are exactly
  that on a fresh executor, so there is one query path.
* :func:`run_exact_stopping` — one spec on a fresh sampler, wired like
  :meth:`PlanExecutor.execute_one` but under the exact stopping rule of
  the KDD'19 baselines (:mod:`repro.baselines`).

Scheduling note (why "interleaved" is a ratchet, not strict lock-step):
the executor starts each query's schedule at
``min(N, max(M0, floor))`` where ``floor`` is the largest sample size
any earlier query of the batch reached. Later queries therefore join
the scan at the frontier the batch has already paid for — their early,
cheap iterations collapse into counter reuse — while each query's
per-round failure budget is computed from its own (shorter) actual
schedule. This keeps every single-spec plan bit-identical to its
``swope_*`` call and a mixed plan bit-identical to the same queries run
one by one on a fresh executor at the same seed (the regression suite
in ``tests/test_plan.py`` pins both).

Statistical note: each query's guarantee is individually valid, but the
queries of one plan share one sample, so their *failure events are
dependent*. Separately seeded executors read different stretches of the
store's one layout, so their failures are less dependent but not
independent (see ``docs/PLANNER.md`` and ``docs/THEORY.md``).
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Mapping, Sequence
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Union, cast

import numpy as np

from repro.core.bounds import mi_decision_floor
from repro.core.budget import CancellationToken, QueryBudget
from repro.core.cost import CostModel
from repro.core.engine import (
    CheckpointHook,
    EntropyScoreProvider,
    LoopCheckpoint,
    MutualInformationScoreProvider,
    ScoreProvider,
    adaptive_filter,
    adaptive_top_k,
    default_failure_probability,
    validate_epsilon,
    validate_k,
)
from repro.core.results import FilterResult, TopKResult
from repro.core.schedule import SampleSchedule, initial_sample_size
from repro.data.backends import CountingBackend
from repro.data.column_store import ColumnSource
from repro.data.sampling import PrefixSampler
from repro.exceptions import (
    CheckpointError,
    CheckpointMismatchError,
    DataFormatError,
    ParameterError,
    PlanError,
    QueryInterruptedError,
    SchemaError,
)
from repro.obs.events import (
    AnswerReusedEvent,
    CacheHitEvent,
    CacheMissEvent,
    CheckpointSavedEvent,
    PlanEndEvent,
    PlanResumedEvent,
    PlanStartEvent,
    QueryRetiredEvent,
    ScheduleChosenEvent,
    TraceEvent,
)
from repro.obs.metrics import (
    MetricsRegistry,
    record_cache,
    record_checkpoint,
    record_plan,
    record_query,
    record_resume,
)
from repro.obs.sinks import TraceSink

if TYPE_CHECKING:  # pragma: no cover - typing only (both sit above)
    from repro.cache import CachePartition, PlanCache
    from repro.cache.store import ServedAnswer
    from repro.durability.checkpoint import _CounterMemo

__all__ = [
    "PAPER_EPSILON",
    "QUERY_KINDS",
    "QUERY_SCORES",
    "PlanExecutor",
    "PlanResult",
    "PlanStats",
    "QueryPlan",
    "QuerySpec",
    "load_plan",
    "plan_queries",
    "run_exact_stopping",
]

#: The two stopping rules (Definitions 5 and 6 of the paper).
QUERY_KINDS = ("top_k", "filter")

#: The two score functions the engine can bound.
QUERY_SCORES = ("entropy", "mutual_information")

#: The paper's evaluation-default ``ε`` per query shape (Section 6.1);
#: the only source of the default when a spec (or a ``swope_*`` call)
#: leaves ``epsilon`` unset.
PAPER_EPSILON = {
    ("top_k", "entropy"): 0.1,
    ("filter", "entropy"): 0.05,
    ("top_k", "mutual_information"): 0.5,
    ("filter", "mutual_information"): 0.5,
}

_KIND_ALIASES = {
    "top_k": "top_k",
    "topk": "top_k",
    "top-k": "top_k",
    "filter": "filter",
    "filtering": "filter",
}

_SCORE_ALIASES = {
    "entropy": "entropy",
    "mi": "mutual_information",
    "mutual_information": "mutual_information",
    "mutual-information": "mutual_information",
}

#: CLI-style combined spellings (``repro query topk-entropy ...``).
_COMBINED_KINDS = {
    "topk-entropy": ("top_k", "entropy"),
    "filter-entropy": ("filter", "entropy"),
    "topk-mi": ("top_k", "mutual_information"),
    "filter-mi": ("filter", "mutual_information"),
}

_SPEC_KEYS = frozenset(
    {"kind", "score", "k", "threshold", "epsilon", "target", "attributes",
     "prune", "name"}
)

QueryResult = Union[TopKResult, FilterResult]


@dataclass(frozen=True)
class QuerySpec:
    """One SWOPE query, declaratively.

    Structural consistency is checked at construction time
    (:class:`~repro.exceptions.PlanError`): a ``top_k`` spec needs ``k``
    and must not carry a ``threshold`` (and vice versa for ``filter``),
    a ``mutual_information`` spec needs a ``target`` which an entropy
    spec must not have. Domain checks (``k >= 1``, ``ε`` in ``(0, 1)``,
    thresholds) stay with the engine validators — except in
    :func:`plan_queries`, which fail-fasts them for the whole batch.

    Attributes
    ----------
    kind:
        ``"top_k"`` or ``"filter"``.
    score:
        ``"entropy"`` or ``"mutual_information"``.
    k:
        Top-k answer size (``top_k`` specs only).
    threshold:
        Filter threshold ``η`` in bits (``filter`` specs only).
    epsilon:
        Error parameter; ``None`` means the paper default for this
        query shape (:data:`PAPER_EPSILON`).
    target:
        MI target attribute (``mutual_information`` specs only).
    attributes:
        Candidate attributes (at least one), any sequence of names but a
        bare string, kept as a tuple; ``None`` means all attributes of
        the store (minus the target for MI specs).
    prune:
        Apply top-k candidate pruning (ignored by ``filter`` specs).
    name:
        Optional label; the planner assigns ``q{index}`` when unset.
    """

    kind: str
    score: str
    k: int | None = None
    threshold: float | None = None
    epsilon: float | None = None
    target: str | None = None
    attributes: Sequence[str] | None = None
    prune: bool = True
    name: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise PlanError(
                f"unknown query kind {self.kind!r}; expected one of {QUERY_KINDS}"
            )
        if self.score not in QUERY_SCORES:
            raise PlanError(
                f"unknown query score {self.score!r};"
                f" expected one of {QUERY_SCORES}"
            )
        if self.kind == "top_k":
            if self.k is None:
                raise PlanError("a top_k spec needs k")
            if self.threshold is not None:
                raise PlanError(
                    f"a top_k spec cannot carry a threshold"
                    f" (got threshold={self.threshold!r})"
                )
        else:
            if self.threshold is None:
                raise PlanError("a filter spec needs a threshold")
            if self.k is not None:
                raise PlanError(f"a filter spec cannot carry k (got k={self.k!r})")
        if self.score == "mutual_information":
            if self.target is None:
                raise PlanError(
                    "a mutual_information spec needs a target attribute"
                )
        elif self.target is not None:
            raise PlanError(
                f"an entropy spec cannot carry a target attribute"
                f" (got target={self.target!r})"
            )
        if self.attributes is not None:
            if isinstance(self.attributes, str):
                raise PlanError(
                    f"'attributes' must be a list of names, got {self.attributes!r}"
                )
            if not isinstance(self.attributes, tuple):
                object.__setattr__(self, "attributes", tuple(self.attributes))
            if not self.attributes:
                raise PlanError(
                    "a query spec needs at least one candidate attribute"
                    " (got an empty attributes list)"
                )

    def describe(self) -> str:
        """One-line human rendering (CLI batch output)."""
        parts = [self.kind, self.score]
        if self.k is not None:
            parts.append(f"k={self.k}")
        if self.threshold is not None:
            parts.append(f"eta={self.threshold:g}")
        if self.epsilon is not None:
            parts.append(f"epsilon={self.epsilon:g}")
        if self.target is not None:
            parts.append(f"target={self.target}")
        return " ".join(parts)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "QuerySpec":
        """Build a spec from a JSON-shaped mapping (plan-file entries).

        Accepts the CLI's combined kind spellings (``"topk-entropy"``,
        ``"filter-mi"``, ...) as well as split ``kind`` + ``score`` keys
        with common aliases (``"topk"``, ``"mi"``). Unknown keys,
        unknown spellings, and wrongly typed values raise
        :class:`~repro.exceptions.PlanError`.
        """
        unknown = sorted(set(payload) - _SPEC_KEYS)
        if unknown:
            raise PlanError(f"unknown query-spec keys: {unknown}")
        raw_kind = payload.get("kind")
        if not isinstance(raw_kind, str):
            raise PlanError(f"a query spec needs a string 'kind', got {raw_kind!r}")
        raw_score = payload.get("score")
        kind_key = raw_kind.strip().lower()
        if kind_key in _COMBINED_KINDS:
            kind, score = _COMBINED_KINDS[kind_key]
            if raw_score is not None:
                spelled = _SCORE_ALIASES.get(str(raw_score).strip().lower())
                if spelled != score:
                    raise PlanError(
                        f"kind {raw_kind!r} already implies score {score!r},"
                        f" got score={raw_score!r}"
                    )
        else:
            if kind_key not in _KIND_ALIASES:
                raise PlanError(
                    f"unknown query kind {raw_kind!r}; expected one of"
                    f" {sorted(_KIND_ALIASES)} or a combined spelling"
                    f" like {sorted(_COMBINED_KINDS)}"
                )
            kind = _KIND_ALIASES[kind_key]
            if raw_score is None:
                raise PlanError(
                    f"query kind {raw_kind!r} needs a 'score' key"
                    f" ({' or '.join(QUERY_SCORES)})"
                )
            score_key = str(raw_score).strip().lower()
            if score_key not in _SCORE_ALIASES:
                raise PlanError(
                    f"unknown query score {raw_score!r}; expected one of"
                    f" {sorted(_SCORE_ALIASES)}"
                )
            score = _SCORE_ALIASES[score_key]
        k = payload.get("k")
        if k is not None and (isinstance(k, bool) or not isinstance(k, int)):
            raise PlanError(f"'k' must be an integer, got {k!r}")
        threshold = payload.get("threshold")
        if threshold is not None and not isinstance(threshold, (int, float)):
            raise PlanError(f"'threshold' must be a number, got {threshold!r}")
        epsilon = payload.get("epsilon")
        if epsilon is not None and not isinstance(epsilon, (int, float)):
            raise PlanError(f"'epsilon' must be a number, got {epsilon!r}")
        target = payload.get("target")
        if target is not None and not isinstance(target, str):
            raise PlanError(f"'target' must be a string, got {target!r}")
        name = payload.get("name")
        if name is not None and not isinstance(name, str):
            raise PlanError(f"'name' must be a string, got {name!r}")
        prune = payload.get("prune", True)
        if not isinstance(prune, bool):
            raise PlanError(f"'prune' must be a boolean, got {prune!r}")
        attributes = payload.get("attributes")
        if attributes is not None and not (
            isinstance(attributes, Sequence)
            and all(isinstance(a, str) for a in attributes)
        ):
            raise PlanError(
                f"'attributes' must be a list of names, got {attributes!r}"
            )
        return cls(
            kind=kind,
            score=score,
            k=k,
            threshold=None if threshold is None else float(threshold),
            epsilon=None if epsilon is None else float(epsilon),
            target=target,
            attributes=cast("Sequence[str] | None", attributes),
            prune=prune,
            name=name,
        )


def _checked_path(value: str | Path, what: str) -> Path:
    """``value`` as a path, refusing the NUL byte no file system accepts."""
    path = Path(value)
    if "\x00" in str(path):
        raise ParameterError(f"{what} {str(path)!r} holds a NUL byte")
    return path


def load_plan(source: str | Path) -> list[QuerySpec]:
    """Parse a plan file (JSON) into a list of :class:`QuerySpec`.

    Two shapes are accepted: a bare list of spec objects, or an object
    with a ``"queries"`` list (room for future plan-level keys). The
    file shape errors raise :class:`~repro.exceptions.DataFormatError`;
    per-spec problems raise :class:`~repro.exceptions.PlanError`.
    """
    path = Path(source)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # undecodable text, a NUL in the path
        raise DataFormatError(f"cannot read plan file {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path} is not valid JSON: {exc}") from exc
    entries: object
    if isinstance(payload, Mapping):
        if "queries" not in payload:
            raise DataFormatError(
                f"{path}: a plan object needs a 'queries' list"
            )
        entries = payload["queries"]
    else:
        entries = payload
    if not isinstance(entries, list):
        raise DataFormatError(
            f"{path}: a plan must be a list of query specs"
            " (or an object with a 'queries' list)"
        )
    specs: list[QuerySpec] = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            raise DataFormatError(f"{path}: queries[{index}] is not an object")
        specs.append(QuerySpec.from_dict(entry))
    return specs


@dataclass(frozen=True)
class QueryPlan:
    """A validated, normalised batch of query specs plus its count needs.

    ``specs`` carry resolved candidate lists, filled-in epsilons, and
    unique names. ``marginal_attributes`` is the ordered union of every
    marginal counter the plan touches; ``joint_targets`` groups the MI
    specs' joint requirements as ``(target, candidates)`` pairs — the
    executor fetches each group through the batched backend API exactly
    once per schedule block.
    """

    specs: tuple[QuerySpec, ...]
    marginal_attributes: tuple[str, ...]
    joint_targets: tuple[tuple[str, tuple[str, ...]], ...]
    population_size: int
    #: How ``specs`` was ordered: ``"cost"`` (cheapest predicted query
    #: first) or ``"submission"`` (caller order). Defaults keep
    #: hand-built plans valid.
    order: str = "submission"
    #: Query names in the caller's submission order (names are assigned
    #: from submission indices, so ``q0`` may run late under cost order).
    submission_names: tuple[str, ...] = ()
    #: Cost-model cell predictions aligned with ``specs`` (empty for
    #: submission order).
    estimated_cells: tuple[int, ...] = ()
    #: Label of the predictor that ordered the plan (``"analytic"`` /
    #: ``"none"``).
    cost_model: str = "none"

    @property
    def names(self) -> tuple[str, ...]:
        """Query names in execution order (planner-assigned when unset)."""
        return tuple(spec.name or "" for spec in self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[QuerySpec]:
        return iter(self.specs)


def _resolved_candidates(store: ColumnSource, spec: QuerySpec) -> list[str]:
    """Resolve a spec's candidate list against ``store``.

    Raises exactly the legacy entry-point errors (same types, same
    messages) so the planner path and the four ``swope_*`` façades stay
    behaviour-identical.
    """
    if spec.score == "mutual_information":
        target = spec.target
        if target is None:  # pragma: no cover - QuerySpec.__post_init__ guards
            raise PlanError("a mutual_information spec needs a target attribute")
        if target not in store:
            raise SchemaError(f"unknown target attribute {target!r}")
        if spec.attributes is None:
            names = [a for a in store.attributes if a != target]
        else:
            names = list(spec.attributes)
            unknown = [a for a in names if a not in store]
            if unknown:
                raise SchemaError(f"unknown attributes: {unknown}")
            if target in names:
                raise ParameterError(
                    f"target attribute {target!r} cannot also be a candidate"
                )
        if not names:
            raise ParameterError(
                "MI top-k query needs at least one candidate attribute"
                if spec.kind == "top_k"
                else "MI filtering query needs at least one candidate attribute"
            )
        return names
    names = (
        list(spec.attributes)
        if spec.attributes is not None
        else list(store.attributes)
    )
    unknown = [a for a in names if a not in store]
    if unknown:
        raise SchemaError(f"unknown attributes: {unknown}")
    return names


def plan_queries(
    store: ColumnSource,
    specs: Sequence[QuerySpec],
    *,
    order: str = "cost",
    failure_probability: float | None = None,
) -> QueryPlan:
    """Validate, normalise, dedup, and *schedule* ``specs`` into a plan.

    Per spec: the candidate list is resolved against the store (unknown
    attributes raise :class:`~repro.exceptions.SchemaError`), ``ε`` is
    filled from :data:`PAPER_EPSILON` and range-checked, ``k`` is
    range-checked, and the name defaults to ``q{index}`` — the
    *submission* index, so names stay stable under reordering. Plan-level
    structure raises :class:`~repro.exceptions.PlanError`: an empty spec
    list, duplicate names, a spec repeating an earlier one (same
    normalised body under a different name), a filter threshold that is
    not finite and strictly positive (``η = 0`` admits every attribute —
    a planned batch almost certainly misspelled it; the single-query
    API still allows it), or an MI target listed among its own
    candidates.

    Scheduling: with ``order="cost"`` (the default) the batch runs
    cheapest-predicted-first under the analytic
    :class:`~repro.core.cost.CostModel`, a pure function of the store
    schema and query shapes — deterministic across sessions, which the
    cache's bit-identity gate relies on. Cheap queries then pay the
    early prefix sizes and expensive queries join the scan at the
    ratcheted frontier, maximising counter reuse. Ties break by
    submission index, so the schedule is deterministic for a fixed
    plan.
    ``order="submission"`` keeps the caller's order.
    ``failure_probability`` only feeds the cost predictions; pass the
    executor's value when it differs from the paper default ``1/N``.
    """
    if not specs:
        raise PlanError("a query plan needs at least one spec")
    if order not in ("cost", "submission"):
        raise PlanError(
            f"unknown plan order {order!r}; use 'cost' or 'submission'"
        )
    normalized: list[QuerySpec] = []
    seen_names: set[str] = set()
    seen_bodies: set[tuple[object, ...]] = set()
    for index, spec in enumerate(specs):
        name = spec.name if spec.name is not None else f"q{index}"
        if name in seen_names:
            raise PlanError(f"duplicate query name {name!r} in plan")
        seen_names.add(name)
        if (
            spec.score == "mutual_information"
            and spec.attributes is not None
            and spec.target in spec.attributes
        ):
            raise PlanError(
                f"query {name!r}: target attribute {spec.target!r} cannot"
                " also be a candidate"
            )
        candidates = tuple(_resolved_candidates(store, spec))
        if spec.kind == "filter":
            threshold = spec.threshold
            if (
                threshold is None
                or not math.isfinite(threshold)
                or threshold <= 0.0
            ):
                raise PlanError(
                    f"query {name!r}: a planned filter threshold must be"
                    f" finite and > 0, got {threshold!r}"
                )
        elif spec.k is not None:
            validate_k(spec.k)
        epsilon = (
            spec.epsilon
            if spec.epsilon is not None
            else PAPER_EPSILON[(spec.kind, spec.score)]
        )
        validate_epsilon(epsilon)
        resolved = replace(spec, attributes=candidates, epsilon=epsilon, name=name)
        body: tuple[object, ...] = (
            resolved.kind,
            resolved.score,
            resolved.k,
            resolved.threshold,
            resolved.epsilon,
            resolved.target,
            resolved.attributes,
            resolved.prune,
        )
        if body in seen_bodies:
            raise PlanError(
                f"duplicate query spec in plan: {name!r} repeats an"
                " earlier query"
            )
        seen_bodies.add(body)
        normalized.append(resolved)
    submission_names = tuple(
        spec.name if spec.name is not None else "" for spec in normalized
    )
    estimated: tuple[int, ...] = ()
    model_label = "none"
    scheduled = normalized
    if order == "cost":
        model = CostModel()
        predictions = [
            estimate.predicted_cells
            for estimate in model.estimate_batch(
                store, normalized, failure_probability=failure_probability
            )
        ]
        ranked = sorted(
            range(len(normalized)), key=lambda i: (predictions[i], i)
        )
        scheduled = [normalized[i] for i in ranked]
        estimated = tuple(predictions[i] for i in ranked)
        model_label = model.label
    # Count-group extraction follows the *scheduled* order, so the
    # executor's batched passes touch counters in execution order.
    marginals: list[str] = []
    marginal_seen: set[str] = set()
    joints: dict[str, list[str]] = {}
    for resolved in scheduled:
        candidates = resolved.attributes or ()
        needed = (
            [resolved.target, *candidates]
            if resolved.target is not None
            else list(candidates)
        )
        for attribute in needed:
            if attribute not in marginal_seen:
                marginal_seen.add(attribute)
                marginals.append(attribute)
        if resolved.target is not None:
            bucket = joints.setdefault(resolved.target, [])
            for attribute in candidates:
                if attribute not in bucket:
                    bucket.append(attribute)
    return QueryPlan(
        specs=tuple(scheduled),
        marginal_attributes=tuple(marginals),
        joint_targets=tuple(
            (target, tuple(names)) for target, names in joints.items()
        ),
        population_size=store.num_rows,
        order=order,
        submission_names=submission_names,
        estimated_cells=estimated,
        cost_model=model_label,
    )


class _RecordingProvider:
    """Wrap a :class:`ScoreProvider`, recording per-iteration bounds.

    The adaptive loops call ``intervals()`` exactly once per iteration
    with the live candidate set; the recorder keeps
    ``(sample_size, {attribute: (lower, upper, width, midpoint)})`` in
    call order — precisely the history :mod:`repro.cache.semantic`
    replays for dominance reuse. The unclipped ``width``/``midpoint``
    must be captured here because they are not recoverable from the
    clipped ``(lower, upper)`` that trace events carry.
    """

    def __init__(self, inner: ScoreProvider) -> None:
        self._inner = inner
        self.bounds_per_attribute = inner.bounds_per_attribute
        self.timings = inner.timings
        self.history: list[
            tuple[int, dict[str, tuple[float, float, float, float]]]
        ] = []

    def intervals(
        self, attributes: Sequence[str], sample_size: int
    ) -> Mapping[str, Any]:
        out = self._inner.intervals(attributes, sample_size)
        self.history.append(
            (
                sample_size,
                {
                    name: (iv.lower, iv.upper, iv.width, iv.midpoint)
                    for name, iv in out.items()
                },
            )
        )
        return out


@dataclass
class PlanStats:
    """Accounting for one executed plan.

    ``cells_scanned`` is the *incremental* shared-scan cost of this plan
    over the executor's sampler (unlike per-query
    :attr:`~repro.core.results.RunStats.cells_scanned`, which reports
    the sampler's cumulative meter); ``per_query_cells`` breaks it down
    by query, in retirement order.
    """

    queries: int
    queries_completed: int
    cells_scanned: int
    per_query_cells: dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0
    sample_floor: int = 0
    population_size: int = 0


@dataclass(frozen=True)
class PlanResult:
    """Results of one executed plan, keyed by query name in plan order."""

    results: dict[str, QueryResult]
    stats: PlanStats

    def __getitem__(self, name: str) -> QueryResult:
        try:
            return self.results[name]
        except KeyError:
            raise PlanError(
                f"no query named {name!r} in this plan result;"
                f" have {sorted(self.results)}"
            ) from None

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[str]:
        return iter(self.results)


_UNSET: Any = object()


def _emit(sink: TraceSink | None, event: TraceEvent) -> None:
    if sink is not None and sink.enabled:
        sink.emit(event)


def _retired_event(
    name: str, index: int, result: QueryResult, marginal_cells: int
) -> QueryRetiredEvent:
    guarantee = result.guarantee
    return QueryRetiredEvent(
        name=name,
        index=index,
        stopping_reason=(
            guarantee.stopping_reason if guarantee is not None else "converged"
        ),
        guarantee_met=(
            guarantee.guarantee_met if guarantee is not None else True
        ),
        final_sample_size=result.stats.final_sample_size,
        marginal_cells=marginal_cells,
        answer=tuple(result.attributes),
    )


def _query_name(spec: QuerySpec, index: int) -> str:
    return spec.name if spec.name is not None else f"q{index}"


@dataclass
class _PlanProgress:
    """Everything a plan run saves to be resumed, besides the sampler.

    :meth:`PlanExecutor.execute` updates it as boundaries pass and
    queries retire, :mod:`repro.durability.checkpoint` encodes and
    decodes it, and :meth:`PlanExecutor.resume` hands the decoded record
    back to ``execute``.

    Two meters are kept apart. ``cells_at_start`` is where the plan's
    cell accounting (:attr:`PlanStats.cells_scanned`) starts;
    ``budget_meter`` is where the plan budget's cell allowance is
    measured from. They agree on a fresh run. A resumed run keeps the
    first, but its budget is the checkpoint's residual, so the
    allowance is measured from the checkpoint's meter: cells spent
    before the checkpoint are charged once.
    """

    plan: QueryPlan
    cells_at_start: int
    budget_meter: int
    #: Retired results and their incremental cells, in retirement order.
    results: dict[str, QueryResult] = field(default_factory=dict)
    per_query_cells: dict[str, int] = field(default_factory=dict)
    #: The query running or next to run (``len(plan.specs)`` when done).
    index: int = 0
    #: The sampler meter when that query started.
    cells_before: int = 0
    #: That query's last saved iteration boundary (``None``: none yet).
    loop: LoopCheckpoint | None = None

    @property
    def running(self) -> str | None:
        """Name of the query at ``index``; ``None`` once all retired."""
        if self.index >= len(self.plan.specs):
            return None
        return _query_name(self.plan.specs[self.index], self.index)

    @cached_property
    def spec_payloads(self) -> list[dict[str, Any]]:
        """The plan's specs as a checkpoint's ``specs`` section, built once."""
        return [asdict(spec) for spec in self.plan.specs]


def _remaining_budget(
    budget: QueryBudget | None,
    started: float,
    budget_meter: int,
    sampler: PrefixSampler,
) -> QueryBudget | None:
    """The plan-wide budget minus what the plan already consumed.

    The residual deadline and cell allowance are clamped to tiny positive
    values rather than zero: a query handed an exhausted budget still
    runs exactly one iteration and returns a degraded answer with an
    honest :class:`~repro.core.results.GuaranteeStatus` — the engine's
    anytime contract, applied per query across the batch.
    """
    if budget is None:
        return None
    deadline_ms = budget.deadline_ms
    if deadline_ms is not None:
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        deadline_ms = max(deadline_ms - elapsed_ms, 1e-6)
    max_cells = budget.max_cells
    if max_cells is not None:
        max_cells = max(max_cells - (sampler.cells_scanned - budget_meter), 1)
    return QueryBudget(
        deadline_ms=deadline_ms,
        max_cells=max_cells,
        max_sample_size=budget.max_sample_size,
    )


#: Whether MI loops start evaluating at their decision floor. Tests
#: switch it off to check that the floor changes nothing but the
#: evaluations it skips.
_SKIP_TO_DECISION_FLOOR = True


def _wire_query(
    sampler: PrefixSampler,
    spec: QuerySpec,
    failure_probability: float,
    schedule: SampleSchedule | None,
    epsilon: float | None,
    floor: int = 0,
) -> tuple[list[str], SampleSchedule, ScoreProvider, int]:
    """Turn ``spec`` into its candidates, schedule, provider and decision floor.

    Candidate resolution raises the typed errors of :func:`plan_queries`.
    ``schedule`` defaults to the paper schedule with its start ratcheted
    to ``floor``, the largest sample any earlier query on ``sampler``
    reached. The provider's per-bound failure budget is union-bounded
    over that schedule: one Lemma 3 bound per candidate and round for
    entropy, three (target, candidate, joint) for mutual information.
    The decision floor is the schedule index at which the loop evaluates
    first (:func:`repro.core.bounds.mi_decision_floor` under ``epsilon``,
    ``None`` for the exact rule); it is 0 for entropy queries.
    """
    store = sampler.store
    names = _resolved_candidates(store, spec)
    target = spec.target
    all_names = names if target is None else [target, *names]
    if schedule is None:
        max_support = max(store.support_size(a) for a in all_names)
        m0 = initial_sample_size(
            store.num_rows, len(all_names), failure_probability, max_support
        )
        schedule = SampleSchedule.for_query(
            store.num_rows,
            len(all_names),
            failure_probability,
            max_support,
            initial_size=min(store.num_rows, max(m0, floor)),
        )
    provider: ScoreProvider
    decision_floor = 0
    if target is None:
        provider = EntropyScoreProvider(
            sampler, schedule.per_round_failure(failure_probability, len(names))
        )
    else:
        per_bound = schedule.per_round_failure(
            failure_probability, len(names), bounds_per_attribute=3
        )
        provider = MutualInformationScoreProvider(sampler, target, per_bound)
        if _SKIP_TO_DECISION_FLOOR:
            decision_floor = mi_decision_floor(
                schedule.sizes,
                store.num_rows,
                per_bound,
                store.support_size(target),
                [store.support_size(a) for a in names],
                epsilon=epsilon,
                k=spec.k if spec.kind == "top_k" else None,
                threshold=spec.threshold if spec.kind == "filter" else None,
                prune=spec.prune,
            )
    return names, schedule, provider, decision_floor


def _run_loop(
    spec: QuerySpec,
    provider: ScoreProvider,
    sampler: PrefixSampler,
    names: list[str],
    epsilon: float | None,
    schedule: SampleSchedule,
    *,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
    trace: TraceSink | None = None,
    metrics: MetricsRegistry | None = None,
    checkpoint: CheckpointHook | None = None,
    resume_state: LoopCheckpoint | None = None,
    decision_floor: int = 0,
) -> QueryResult:
    """Enter the adaptive loop that answers ``spec``'s kind.

    ``epsilon=None`` selects the exact stopping rule of the KDD'19
    baselines; a number selects SWOPE's relative-error rule.
    """
    if spec.kind == "top_k":
        if spec.k is None:  # pragma: no cover - QuerySpec guards
            raise PlanError("a top_k spec needs k")
        return adaptive_top_k(
            provider, sampler, names, spec.k, epsilon, schedule,
            prune=spec.prune, target=spec.target, trace=trace, budget=budget,
            cancellation=cancellation, strict=strict, metrics=metrics,
            checkpoint=checkpoint, resume_state=resume_state,
            decision_floor=decision_floor,
        )
    if spec.threshold is None:  # pragma: no cover - QuerySpec guards
        raise PlanError("a filter spec needs a threshold")
    return adaptive_filter(
        provider, sampler, names, spec.threshold, epsilon, schedule,
        target=spec.target, trace=trace, budget=budget,
        cancellation=cancellation, strict=strict, metrics=metrics,
        checkpoint=checkpoint, resume_state=resume_state,
        decision_floor=decision_floor,
    )


def run_exact_stopping(
    store: ColumnSource,
    spec: QuerySpec,
    *,
    seed: int | np.random.Generator | None = None,
    layout_seed: int | None = None,
    failure_probability: float | None = None,
    schedule: SampleSchedule | None = None,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
) -> QueryResult:
    """Answer ``spec`` exactly, with the stopping rule of EntropyRank/EntropyFilter.

    The run takes a fresh sampler and the wiring of
    :meth:`PlanExecutor.execute_one` (candidates, ``p_f`` default, paper
    schedule, per-bound failure budget, provider), and differs from a
    SWOPE run only in the stopping rule: the loop stops once the answer
    is provably exact, so the spec's ``epsilon`` is not used. The
    answer carries no approximation guarantee (``guarantee`` is
    ``None``) unless a budget or cancellation truncates the run.
    """
    sampler = PrefixSampler(store, seed=seed, layout_seed=layout_seed)
    failure = (
        failure_probability
        if failure_probability is not None
        else default_failure_probability(store.num_rows)
    )
    names, schedule, provider, decision_floor = _wire_query(
        sampler, spec, failure, schedule, None
    )
    return _run_loop(
        spec, provider, sampler, names, None, schedule,
        budget=budget, cancellation=cancellation, strict=strict,
        decision_floor=decision_floor,
    )


def _recorded_run_fits(served: "ServedAnswer", budget: QueryBudget) -> bool:
    """Whether the run that recorded ``served`` fits ``budget``'s caps.

    The recorded final sample must fit ``max_sample_size`` and the
    recorded cells ``max_cells``. An exact hit records its run's cells
    (moved into ``cells_saved``); a semantic replay records none, so it
    is never served under a cell cap. A deadline is not checked.
    """
    stats = served.result.stats
    if (
        budget.max_sample_size is not None
        and stats.final_sample_size > budget.max_sample_size
    ):
        return False
    return budget.max_cells is None or (
        served.mode == "exact" and stats.cells_saved <= budget.max_cells
    )


class PlanExecutor:
    """Execute query plans over one shared, counter-retaining sampler.

    The executor owns a :class:`~repro.data.sampling.PrefixSampler`,
    which keeps every marginal and joint counter any query grows, so
    each count a plan needs is fetched from the store exactly once —
    later queries of the batch (and later plans on the same executor)
    reuse it for free. The starting sample size
    ratchets to the largest ``M`` any query has reached (prefix counters
    can only grow); starting at a larger-than-``M0`` sample is
    statistically harmless, because the Lemma 3 interval at a larger
    ``M`` is simply tighter and the per-round failure budget is computed
    from the (shorter) actual schedule. Queries run as whole plans
    (:meth:`execute`) or one at a time:

    >>> executor = PlanExecutor(store, seed=0)      # doctest: +SKIP
    >>> executor.top_k_entropy(5)                   # pays for its sample
    >>> executor.filter_entropy(2.0)                # reuses those counts
    >>> executor.marginal_cells()                   # incremental cost ~ 0

    Every query keeps its own Definition 5/6 guarantee, but queries on
    one executor share one sample, so their failure events are
    dependent; give each query its own seeded executor when they must
    be independent (executors over one store still share its layout,
    see docs/THEORY.md).

    Parameters
    ----------
    store:
        The dataset to query.
    seed:
        Seed for the run's offset into the store's sampling layout,
        which all queries share.
    layout_seed:
        Seed of the store's sampling layout (``None``: the store's own;
        see :class:`~repro.data.sampling.PrefixSampler`).
    failure_probability:
        ``p_f`` used by every query (default: the paper's ``1/N``).
        Per-query failure budgets stay per-query — each query's bound
        evaluations are union-bounded within that query alone.
    budget:
        Default plan-wide :class:`~repro.core.budget.QueryBudget`;
        ``execute``/``execute_one`` can override it per call.
    backend:
        Counting backend of the shared sampler (``None``, ``"numpy"``,
        or a :class:`~repro.data.backends.CountingBackend` instance).
    trace:
        Default :class:`~repro.obs.sinks.TraceSink` receiving both the
        plan-level events and every query's event stream.
    metrics:
        Default :class:`~repro.obs.metrics.MetricsRegistry` fed by
        :func:`~repro.obs.metrics.record_plan` per plan and
        :func:`~repro.obs.metrics.record_query` per query.
    checkpoint_path:
        When set, :meth:`execute` durably snapshots plan progress to
        this path (atomic write-rename, see
        :mod:`repro.durability.checkpoint`): once at plan start, at
        every iteration boundary of the running query, and after every
        query retirement. A crash, budget exhaustion, or cancellation
        therefore always leaves a loadable checkpoint behind;
        :meth:`resume` restarts from it with bit-identical final
        answers.
    cache:
        A :class:`~repro.cache.PlanCache` shared across executors:
        retired answers are served without re-running (exact matches and
        semantic dominance), counters warm-start from cached prefixes,
        and converged results are written back after each query.
    cache_dir:
        Convenience: a directory path to open a persistent
        :class:`~repro.cache.PlanCache` in. Mutually exclusive with
        ``cache``.
    """

    def __init__(
        self,
        store: ColumnSource,
        *,
        seed: int | np.random.Generator | None = None,
        layout_seed: int | None = None,
        failure_probability: float | None = None,
        budget: QueryBudget | None = None,
        backend: str | CountingBackend | None = None,
        trace: TraceSink | None = None,
        metrics: MetricsRegistry | None = None,
        checkpoint_path: str | Path | None = None,
        cache: "PlanCache | None" = None,
        cache_dir: str | Path | None = None,
    ) -> None:
        self._setup(
            PrefixSampler(store, seed=seed, layout_seed=layout_seed, backend=backend),
            failure_probability=failure_probability,
            budget=budget,
            trace=trace,
            metrics=metrics,
            checkpoint_path=checkpoint_path,
        )
        self._bind_cache(cache, cache_dir)

    def _setup(
        self,
        sampler: PrefixSampler,
        *,
        failure_probability: float | None,
        budget: QueryBudget | None,
        trace: TraceSink | None,
        metrics: MetricsRegistry | None,
        checkpoint_path: str | Path | None,
    ) -> None:
        """Initialise a fresh (or, via :meth:`resume`, restored) executor."""
        self._store = sampler.store
        self._sampler = sampler
        self._failure = (
            failure_probability
            if failure_probability is not None
            else default_failure_probability(sampler.num_rows)
        )
        self._budget = budget
        self._trace = trace
        self._metrics = metrics
        self._floor = 0  # largest M any query has reached so far
        self._queries_run = 0
        self._last_cells = 0
        self._checkpoint_path = (
            None
            if checkpoint_path is None
            else _checked_path(checkpoint_path, "checkpoint_path")
        )
        self._boundaries = 0  # iteration boundaries seen across all plans
        self._fingerprint: str | None = None
        self._resumed: _PlanProgress | None = None
        # The sampler's counters as last encoded for a checkpoint.
        self._encoded: "_CounterMemo" = {}
        self._cache: "PlanCache | None" = None
        self._partition: "CachePartition | None" = None

    # ------------------------------------------------------------------
    @property
    def store(self) -> ColumnSource:
        """The wrapped dataset."""
        return self._store

    @property
    def sampler(self) -> PrefixSampler:
        """The shared counter-retaining sampler (shared-cost accounting)."""
        return self._sampler

    @property
    def cells_scanned(self) -> int:
        """Cumulative unique cells read across all queries so far."""
        return self._sampler.cells_scanned

    @property
    def queries_run(self) -> int:
        """Number of queries answered by this executor."""
        return self._queries_run

    @property
    def sample_floor(self) -> int:
        """The ratcheted starting sample size for the next query."""
        return self._floor

    def marginal_cells(self) -> int:
        """Cells added by the most recent query (0 before any query)."""
        return self._last_cells

    @property
    def default_budget(self) -> QueryBudget | None:
        """The executor-wide budget applied when a call passes none."""
        return self._budget

    @property
    def default_trace(self) -> TraceSink | None:
        """The executor-wide trace sink applied when a call passes none."""
        return self._trace

    @property
    def default_metrics(self) -> MetricsRegistry | None:
        """The executor-wide metrics registry applied when a call passes none."""
        return self._metrics

    @property
    def cache(self) -> "PlanCache | None":
        """The attached plan cache (``None`` when caching is off)."""
        return self._cache

    def _bind_cache(
        self, cache: "PlanCache | None", cache_dir: str | Path | None
    ) -> None:
        """Open/attach the plan cache and bind this executor's partition.

        Called from ``__init__`` and (after the restored sampler is in
        place) from :meth:`resume` — the partition key includes the
        shuffle fingerprint, so binding must happen against the sampler
        that will actually serve the queries.
        """
        if cache is not None and cache_dir is not None:
            raise ParameterError(
                "pass either cache= or cache_dir=, not both"
            )
        if cache is None and cache_dir is None:
            return
        from repro.cache import PlanCache  # local: layering

        if cache_dir is not None:
            directory = _checked_path(cache_dir, "cache_dir")
            nearest = next(p for p in (directory, *directory.parents) if p.exists())
            if not nearest.is_dir():
                raise ParameterError(
                    f"cache_dir {directory} cannot be a directory: {nearest}"
                    " is an existing file"
                )
            cache = PlanCache(directory)
        elif not isinstance(cache, PlanCache):
            raise ParameterError(
                f"cache= must be a PlanCache or None; got {type(cache).__name__}"
            )
        self._cache = cache
        self._partition = cache.partition(
            fingerprint=self._store_fingerprint(),
            shuffle=self._sampler.shuffle_fingerprint(),
        )
        self._sampler.attach_counter_cache(self._partition)

    @contextmanager
    def _flushing(self) -> Iterator[None]:
        """Write the cache back once, when the block returns or raises.

        The partition absorbs the sampler's counters and the cache
        writes every dirty partition. Answers and counters stay in
        memory in between, where later queries already see them. A
        flush that fails while an exception is ending the block is
        attached to that exception as a note instead of replacing it.
        An interrupt (``KeyboardInterrupt``, ``SystemExit``) skips the
        flush, as a hard kill would: it can land between a counter's
        growth and its prefix update, and the cache must never keep such
        a counter.
        """
        try:
            yield
        except Exception as exc:
            try:
                self._flush_cache()
            except Exception as flush_error:
                # By hand, as ``add_note`` does from Python 3.11 on.
                exc.__notes__ = [
                    *getattr(exc, "__notes__", ()),
                    f"the plan cache flush also failed: {flush_error!r}",
                ]
            raise
        self._flush_cache()

    def _flush_cache(self) -> None:
        if self._cache is None or self._partition is None:
            return
        self._partition.absorb_sampler_state(self._sampler.state_snapshot())
        self._cache.flush()

    # ------------------------------------------------------------------
    def _serve_from_cache(
        self,
        partition: "CachePartition",
        spec: QuerySpec,
        name: str,
        answer_key: dict[str, Any],
        first_evaluated: tuple[int, int],
        trace: TraceSink | None,
        metrics: MetricsRegistry | None,
        budget: QueryBudget | None,
    ) -> QueryResult | None:
        """A retired answer from the cache partition, or ``None`` on a miss.

        ``first_evaluated`` is the ``(schedule index, sample size)`` at
        which the query's loop would evaluate first (its decision floor);
        a semantic replay starts there too. Under a ``budget`` an answer
        is served only when the run that recorded it fits the budget's
        caps (:func:`_recorded_run_fits`), so the cached answer is the
        one the budgeted run would reach; a deadline alone never blocks
        a serve, which costs no cells. Emits ``cache_hit``/
        ``answer_reused`` or ``cache_miss`` and feeds the cache (and, on
        a hit, the per-query) metrics.
        """
        served = partition.lookup_answer(
            **answer_key,
            population_size=self._store.num_rows,
            first_evaluated=first_evaluated,
        )
        if served is not None and budget is not None and not _recorded_run_fits(
            served, budget
        ):
            served = None
        if served is None:
            _emit(trace, CacheMissEvent(name=name, kind=spec.kind, score=spec.score))
            if metrics is not None:
                record_cache(metrics, hit=False)
            return None
        result: QueryResult = served.result
        _emit(
            trace,
            CacheHitEvent(
                name=name,
                kind=spec.kind,
                score=spec.score,
                mode=served.mode,
                source_param=served.source_param,
                requested_param=answer_key["param"],
            ),
        )
        _emit(
            trace,
            AnswerReusedEvent(
                name=name,
                mode=served.mode,
                iterations=result.stats.iterations,
                final_sample_size=result.stats.final_sample_size,
                cells_saved=result.stats.cells_saved,
                answer=tuple(result.attributes),
            ),
        )
        if metrics is not None:
            record_cache(metrics, hit=True, mode=served.mode)
            assert result.guarantee is not None  # put_answer refuses others
            record_query(
                metrics,
                kind=spec.kind,
                score=spec.score,
                stats=result.stats,
                guarantee=result.guarantee,
            )
        return result

    def execute_one(
        self,
        spec: QuerySpec,
        *,
        schedule: SampleSchedule | None = None,
        budget: QueryBudget | None = _UNSET,
        cancellation: CancellationToken | None = None,
        strict: bool = False,
        trace: TraceSink | None = _UNSET,
        metrics: MetricsRegistry | None = _UNSET,
    ) -> QueryResult:
        """Run one spec over the shared sampler, ratcheting the floor.

        This is the dispatch point between the declarative layer and
        :func:`~repro.core.engine.adaptive_top_k` /
        :func:`~repro.core.engine.adaptive_filter`: the four query
        methods and the four :mod:`repro.core.swope` functions come
        through here, and :meth:`execute` runs each of its queries
        through the same wiring. The exact-stopping baselines share it
        through :func:`run_exact_stopping`; the poll audit fails each
        query loop that evaluates outside ``_run_loop``. Candidate
        resolution raises the typed errors of :func:`plan_queries`;
        ``ε`` defaults to :data:`PAPER_EPSILON`; ``schedule`` defaults
        to the paper schedule started at the ratchet floor.

        ``budget``/``trace``/``metrics`` default to the executor-wide
        settings; pass ``None`` explicitly to lift/silence them for one
        query.

        With a cache attached, retired answers are consulted before the
        engine runs — exact shape matches and semantic dominance serves
        (η′ ≥ η, k′ ≤ k) — and a converged run's answer and counters are
        written back. Answer reuse is skipped for cancellable runs, and
        a budgeted run is served only an answer whose recorded run fits
        its cell and sample caps, so its degradation behaviour is the
        same with or without a cache; a deadline alone never blocks a
        serve. Each call writes the
        cache back once when it returns or raises (strict truncation
        included, interrupts not); :meth:`execute` writes it once per
        plan instead.
        """
        with self._flushing():
            return self._run_one(
                spec, schedule=schedule, budget=budget,
                cancellation=cancellation, strict=strict, trace=trace,
                metrics=metrics,
            )

    def _run_one(
        self,
        spec: QuerySpec,
        *,
        schedule: SampleSchedule | None = None,
        budget: QueryBudget | None = _UNSET,
        cancellation: CancellationToken | None = None,
        strict: bool = False,
        trace: TraceSink | None = _UNSET,
        metrics: MetricsRegistry | None = _UNSET,
        checkpoint: CheckpointHook | None = None,
        resume_state: LoopCheckpoint | None = None,
        cells_before: int | None = None,
    ) -> QueryResult:
        """:meth:`execute_one` without the cache write-back.

        ``checkpoint``/``resume_state``/``cells_before`` are the
        durability hooks of :meth:`execute` and :meth:`resume`;
        ``cells_before`` replays the query's original scan-start meter so
        the per-query cell accounting of a resumed run matches the
        uninterrupted one. Answer reuse is skipped for a resumed query.
        """
        if budget is _UNSET:
            budget = self._budget
        if trace is _UNSET:
            trace = self._trace
        if metrics is _UNSET:
            metrics = self._metrics
        epsilon = (
            spec.epsilon
            if spec.epsilon is not None
            else PAPER_EPSILON[(spec.kind, spec.score)]
        )
        names, schedule, provider, decision_floor = _wire_query(
            self._sampler, spec, self._failure, schedule, epsilon, self._floor
        )
        answer_key: dict[str, Any] = {
            "kind": spec.kind,
            "score": spec.score,
            "epsilon": epsilon,
            "failure_probability": self._failure,
            "schedule_start": schedule.sizes[0],
            "candidates": tuple(names),
            "target": spec.target,
            "prune": spec.prune,
            "param": (
                float(spec.threshold or 0.0)
                if spec.kind == "filter"
                else float(spec.k or 0)
            ),
        }
        before = (
            self._sampler.cells_scanned if cells_before is None else cells_before
        )
        served: QueryResult | None = None
        if (
            self._partition is not None
            and cancellation is None
            and resume_state is None
        ):
            name = spec.name if spec.name is not None else spec.describe()
            served = self._serve_from_cache(
                self._partition,
                spec,
                name,
                answer_key,
                (decision_floor, schedule.sizes[decision_floor]),
                trace,
                metrics,
                budget,
            )
        result: QueryResult
        if served is not None:
            result = served
        else:
            recorder: _RecordingProvider | None = None
            if self._partition is not None and resume_state is None:
                recorder = _RecordingProvider(provider)
                provider = recorder
            try:
                result = _run_loop(
                    spec, provider, self._sampler, names, epsilon, schedule,
                    budget=budget, cancellation=cancellation, strict=strict,
                    trace=trace, metrics=metrics, checkpoint=checkpoint,
                    resume_state=resume_state, decision_floor=decision_floor,
                )
            except QueryInterruptedError:
                self._last_cells = self._sampler.cells_scanned - before
                raise
            finally:
                # Any exit, a strict truncation or an error mid-loop
                # included, may leave the shared counters past the
                # floor, and a later query must not ask them to shrink.
                self._floor = max(self._floor, self._sampler.counted_frontier)
            if self._partition is not None and recorder is not None:
                self._partition.put_answer(
                    **answer_key, history=recorder.history, result=result
                )
        self._queries_run += 1
        self._last_cells = self._sampler.cells_scanned - before
        self._floor = max(self._floor, result.stats.final_sample_size)
        return result

    # ------------------------------------------------------------------
    # The four SWOPE queries (Algorithms 1-4) as one-spec runs.
    # ------------------------------------------------------------------
    def top_k_entropy(
        self,
        k: int,
        *,
        epsilon: float | None = None,
        attributes: Sequence[str] | None = None,
        prune: bool = False,
        schedule: SampleSchedule | None = None,
        budget: QueryBudget | None = _UNSET,
        cancellation: CancellationToken | None = None,
        strict: bool = False,
        trace: TraceSink | None = _UNSET,
        metrics: MetricsRegistry | None = _UNSET,
    ) -> TopKResult:
        """Algorithm 1 over the shared sampler.

        ``attributes=None`` means every attribute of the store; an empty
        list raises :class:`~repro.exceptions.PlanError`. Pruning is off
        by default so later queries find every counter at the frontier
        (see :func:`repro.core.swope.swope_top_k_entropy` for the rest).
        """
        spec = QuerySpec(
            kind="top_k", score="entropy", k=k, epsilon=epsilon,
            attributes=attributes,
            prune=prune,
        )
        return cast(TopKResult, self.execute_one(
            spec, schedule=schedule, budget=budget, cancellation=cancellation,
            strict=strict, trace=trace, metrics=metrics,
        ))

    def filter_entropy(
        self,
        threshold: float,
        *,
        epsilon: float | None = None,
        attributes: Sequence[str] | None = None,
        schedule: SampleSchedule | None = None,
        budget: QueryBudget | None = _UNSET,
        cancellation: CancellationToken | None = None,
        strict: bool = False,
        trace: TraceSink | None = _UNSET,
        metrics: MetricsRegistry | None = _UNSET,
    ) -> FilterResult:
        """Algorithm 2 over the shared sampler (keywords as in
        :meth:`top_k_entropy`)."""
        spec = QuerySpec(
            kind="filter", score="entropy", threshold=threshold,
            epsilon=epsilon,
            attributes=attributes,
        )
        return cast(FilterResult, self.execute_one(
            spec, schedule=schedule, budget=budget, cancellation=cancellation,
            strict=strict, trace=trace, metrics=metrics,
        ))

    def top_k_mutual_information(
        self,
        target: str,
        k: int,
        *,
        epsilon: float | None = None,
        candidates: Sequence[str] | None = None,
        prune: bool = False,
        schedule: SampleSchedule | None = None,
        budget: QueryBudget | None = _UNSET,
        cancellation: CancellationToken | None = None,
        strict: bool = False,
        trace: TraceSink | None = _UNSET,
        metrics: MetricsRegistry | None = _UNSET,
    ) -> TopKResult:
        """Algorithm 3 over the shared sampler (pruning off by default).

        ``candidates=None`` means every attribute except ``target``.
        """
        spec = QuerySpec(
            kind="top_k", score="mutual_information", k=k, epsilon=epsilon,
            target=target,
            attributes=candidates,
            prune=prune,
        )
        return cast(TopKResult, self.execute_one(
            spec, schedule=schedule, budget=budget, cancellation=cancellation,
            strict=strict, trace=trace, metrics=metrics,
        ))

    def filter_mutual_information(
        self,
        target: str,
        threshold: float,
        *,
        epsilon: float | None = None,
        candidates: Sequence[str] | None = None,
        schedule: SampleSchedule | None = None,
        budget: QueryBudget | None = _UNSET,
        cancellation: CancellationToken | None = None,
        strict: bool = False,
        trace: TraceSink | None = _UNSET,
        metrics: MetricsRegistry | None = _UNSET,
    ) -> FilterResult:
        """Algorithm 4 over the shared sampler (keywords as in
        :meth:`top_k_mutual_information`)."""
        spec = QuerySpec(
            kind="filter", score="mutual_information", threshold=threshold,
            epsilon=epsilon, target=target,
            attributes=candidates,
        )
        return cast(FilterResult, self.execute_one(
            spec, schedule=schedule, budget=budget, cancellation=cancellation,
            strict=strict, trace=trace, metrics=metrics,
        ))

    def execute(
        self,
        plan: QueryPlan,
        *,
        budget: QueryBudget | None = _UNSET,
        cancellation: CancellationToken | None = None,
        strict: bool = False,
        trace: TraceSink | None = _UNSET,
        metrics: MetricsRegistry | None = _UNSET,
    ) -> PlanResult:
        """Execute every query of ``plan`` over the shared sampler.

        Queries run in plan order, each joining the scan at the ratchet
        frontier; ``budget`` applies *plan-wide* — each query receives
        the residual (remaining deadline, remaining cell allowance) and
        degrades individually with its own
        :class:`~repro.core.results.GuaranteeStatus` when the residual
        runs out (every query still completes at least one iteration).
        In strict mode the first truncation raises, after the
        ``query_retired`` (from the partial result) and ``plan_end``
        events and the plan metrics have been recorded.

        With ``checkpoint_path`` set, progress is durably snapshotted at
        plan start, at every iteration boundary, and after every
        retirement; on an executor built by
        :meth:`resume`, the first call picks the plan up mid-flight —
        completed queries are restored without re-running, the in-flight
        query restarts at its last checkpointed boundary, and the final
        answers are bit-identical to an uninterrupted run.

        Before each query the sampler is told which joints the plan's
        later MI queries will count
        (:meth:`~repro.data.sampling.PrefixSampler.expect_joints`), so
        an entropy query that reads a candidate's block those joints
        still lack counts the joint delta from it and holds it for the
        MI query; nothing held outlives the plan.

        With a cache attached, the plan writes it back once, on every
        exit path: normal return, strict truncation and errors (not
        interrupts). A flush error never hides the exception that ended
        the plan.
        """
        if budget is _UNSET:
            budget = self._budget
        if trace is _UNSET:
            trace = self._trace
        if metrics is _UNSET:
            metrics = self._metrics
        started = time.perf_counter()
        progress = self._resumed
        self._resumed = None
        if progress is not None:
            if tuple(plan.specs) != progress.plan.specs:
                raise CheckpointMismatchError(
                    "checkpoint was written for a different plan; resume must"
                    " re-execute the same specs (use resumed_plan() to recover"
                    " them from the checkpoint)"
                )
            if metrics is not None:
                record_resume(metrics, queries_completed=len(progress.results))
            _emit(
                trace,
                PlanResumedEvent(
                    queries_completed=len(progress.results),
                    total_queries=len(plan.specs),
                    boundary=self._boundaries,
                    sample_floor=self._floor,
                    population_size=plan.population_size,
                    query=progress.running,
                ),
            )
        else:
            meter = self._sampler.cells_scanned
            progress = _PlanProgress(
                plan=plan,
                cells_at_start=meter,
                budget_meter=meter,
                cells_before=meter,
            )
            _emit(
                trace,
                PlanStartEvent(
                    num_queries=len(plan.specs),
                    queries=plan.names,
                    population_size=plan.population_size,
                    marginal_attributes=plan.marginal_attributes,
                    joint_targets=plan.joint_targets,
                ),
            )
            if plan.order == "cost":
                _emit(
                    trace,
                    ScheduleChosenEvent(
                        order=plan.order,
                        queries=plan.names,
                        submission=plan.submission_names,
                        estimated_cells=plan.estimated_cells,
                        cost_model=plan.cost_model,
                    ),
                )
            if self._checkpoint_path is not None:
                # Plan-start snapshot: even a crash inside the very first
                # iteration leaves a resumable checkpoint behind.
                self._write_checkpoint(progress, budget, started, trace, metrics)
        hook = (
            None
            if self._checkpoint_path is None
            else self._boundary_hook(progress, budget, started, trace, metrics)
        )
        with self._flushing():
            try:
                while progress.index < len(plan.specs):
                    index = progress.index
                    spec = plan.specs[index]
                    name = _query_name(spec, index)
                    self._sampler.expect_joints(
                        (later.target, candidate)
                        for later in plan.specs[index + 1 :]
                        if later.target is not None
                        for candidate in later.attributes or ()
                    )
                    try:
                        result = self._run_one(
                            spec,
                            budget=_remaining_budget(
                                budget, started, progress.budget_meter, self._sampler
                            ),
                            cancellation=cancellation,
                            strict=strict,
                            trace=trace,
                            metrics=metrics,
                            checkpoint=hook,
                            resume_state=progress.loop,
                            cells_before=progress.cells_before,
                        )
                    except QueryInterruptedError as exc:
                        partial = exc.partial
                        if isinstance(partial, (TopKResult, FilterResult)):
                            progress.per_query_cells[name] = self._last_cells
                            _emit(
                                trace,
                                _retired_event(name, index, partial, self._last_cells),
                            )
                        raise
                    progress.results[name] = result
                    progress.per_query_cells[name] = self._last_cells
                    progress.index += 1
                    progress.cells_before = self._sampler.cells_scanned
                    progress.loop = None
                    _emit(trace, _retired_event(name, index, result, self._last_cells))
                    if self._checkpoint_path is not None:
                        self._write_checkpoint(
                            progress, budget, started, trace, metrics
                        )
            finally:
                self._sampler.discard_held_joints()
                cells_scanned = self._sampler.cells_scanned - progress.cells_at_start
                completed = len(progress.results)
                stats = PlanStats(
                    queries=len(plan.specs),
                    queries_completed=completed,
                    cells_scanned=cells_scanned,
                    per_query_cells=progress.per_query_cells,
                    wall_seconds=time.perf_counter() - started,
                    sample_floor=self._floor,
                    population_size=plan.population_size,
                )
                _emit(
                    trace,
                    PlanEndEvent(
                        queries_completed=completed,
                        total_queries=len(plan.specs),
                        cells_scanned=cells_scanned,
                        sample_floor=self._floor,
                    ),
                )
                if metrics is not None:
                    record_plan(metrics, stats=stats)
        return PlanResult(results=progress.results, stats=stats)

    # ------------------------------------------------------------------
    # Durability: checkpointing and resume (repro.durability.checkpoint
    # is imported lazily — it sits above this module in the layer graph).
    # ------------------------------------------------------------------
    @property
    def checkpoint_path(self) -> Path | None:
        """Where :meth:`execute` durably snapshots progress (or ``None``)."""
        return self._checkpoint_path

    @property
    def boundaries_seen(self) -> int:
        """Iteration boundaries crossed under checkpointing so far."""
        return self._boundaries

    def _store_fingerprint(self) -> str:
        if self._fingerprint is None:
            from repro.durability.checkpoint import store_fingerprint

            self._fingerprint = store_fingerprint(self._store)
        return self._fingerprint

    def _boundary_hook(
        self,
        progress: _PlanProgress,
        budget: QueryBudget | None,
        started: float,
        sink: TraceSink | None,
        metrics: MetricsRegistry | None,
    ) -> CheckpointHook:
        """A hook snapshotting every iteration boundary."""

        def hook(state: LoopCheckpoint) -> None:
            self._boundaries += 1
            progress.loop = state
            self._write_checkpoint(progress, budget, started, sink, metrics)

        return hook

    def _write_checkpoint(
        self,
        progress: _PlanProgress,
        budget: QueryBudget | None,
        started: float,
        sink: TraceSink | None,
        metrics: MetricsRegistry | None,
    ) -> None:
        from repro.durability import checkpoint as ckpt

        path = self._checkpoint_path
        if path is None:  # pragma: no cover - callers gate on checkpoint_path
            return
        save_started = time.perf_counter()
        residual = _remaining_budget(
            budget, started, progress.budget_meter, self._sampler
        )
        # The residual deadline is wall-clock *by contract*: a resumed run
        # gets the real time remaining, not a replayed duration (see
        # docs/RESILIENCE.md). The envelope's determinism-critical fields
        # (sampler state, results, specs) are unaffected.
        snapshot = ckpt.PlanCheckpoint(
            dataset={
                "fingerprint": self._store_fingerprint(),
                "num_rows": self._store.num_rows,
            },
            executor={
                "failure_probability": self._failure,
                "sample_floor": self._floor,
                "queries_run": self._queries_run,
                "boundaries_seen": self._boundaries,
            },
            sampler=ckpt.encode_sampler_state(
                self._sampler.state_snapshot(), self._encoded
            ),
            specs=progress.spec_payloads,
            progress=ckpt.progress_to_payload(progress, residual),
        )
        payload_bytes = ckpt.save_checkpoint(snapshot, path)
        if metrics is not None:
            record_checkpoint(
                metrics,
                payload_bytes=payload_bytes,
                seconds=time.perf_counter() - save_started,
            )
        _emit(
            sink,
            CheckpointSavedEvent(
                boundary=self._boundaries,
                queries_completed=len(progress.results),
                query=progress.running,
            ),
        )

    def resumed_plan(self) -> QueryPlan:
        """The plan the loaded checkpoint belongs to (resume-built only).

        Only available on an executor built by :meth:`resume`, before
        its :meth:`execute` call consumes the restored state — pass the
        returned plan straight to :meth:`execute`.

        The plan is rebuilt from the checkpoint's planner metadata
        (specs are stored in *scheduled* order along with the extracted
        count groups), not by re-running :func:`plan_queries` — so the
        resumed plan's count-group extraction and schedule are exactly
        the interrupted run's, even if the default cost model changes
        between versions.
        """
        if self._resumed is None:
            raise ParameterError(
                "resumed_plan() needs an executor built by"
                " PlanExecutor.resume() whose execute() has not run yet"
            )
        return self._resumed.plan

    @classmethod
    def resume(
        cls,
        path: str | Path,
        store: ColumnSource,
        *,
        backend: str | CountingBackend | None = None,
        trace: TraceSink | None = None,
        metrics: MetricsRegistry | None = None,
        cache: "PlanCache | None" = None,
        cache_dir: str | Path | None = None,
    ) -> "PlanExecutor":
        """Rebuild a mid-plan executor from a checkpoint file.

        The checkpoint is verified (format, schema version, sha256,
        dataset fingerprint against ``store``) and the shared sampler is
        reconstructed with its layout, offset, prefix positions, and
        every marginal/joint counter; the next :meth:`execute` call on
        the returned executor restarts the plan at the last checkpointed
        iteration boundary and produces answers bit-identical to an
        uninterrupted run. ``trace``/``metrics`` are fresh run-scoped
        settings (event streams are not replayed); the residual plan
        budget recorded at checkpoint time becomes the executor default.
        """
        from repro.durability import checkpoint as ckpt

        snapshot = ckpt.load_checkpoint(path, store=store)
        try:
            executor_state = snapshot.executor
            failure = float(executor_state["failure_probability"])
            floor = int(executor_state["sample_floor"])
            queries_run = int(executor_state["queries_run"])
            boundaries = int(executor_state["boundaries_seen"])
            progress, budget = ckpt.progress_from_payload(snapshot)
            sampler_state = ckpt.decode_sampler_state(snapshot.sampler)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint {path} has a malformed payload: {exc}"
            ) from exc
        executor = cls.__new__(cls)
        executor._setup(
            PrefixSampler.from_state(store, sampler_state, backend=backend),
            failure_probability=failure,
            budget=budget,
            trace=trace,
            metrics=metrics,
            checkpoint_path=path,
        )
        executor._floor = floor
        executor._queries_run = queries_run
        executor._boundaries = boundaries
        executor._fingerprint = snapshot.dataset.get("fingerprint")
        executor._resumed = progress
        # The partition key includes the shuffle fingerprint, which comes
        # from the restored layout and offset.
        executor._bind_cache(cache, cache_dir)
        return executor
