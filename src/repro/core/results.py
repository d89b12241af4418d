"""Result and run-statistics types shared by all query algorithms.

Every algorithm in :mod:`repro.core` and :mod:`repro.baselines` returns a
rich result object instead of a bare list of attribute names, so that
examples, tests, and the experiment harness can inspect *how* the answer
was produced: final sample size, number of iterations, cells scanned, and
the per-attribute score estimates with their confidence bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ResultConsistencyError, UnknownAttributeError

__all__ = [
    "AttributeEstimate",
    "GuaranteeStatus",
    "RunStats",
    "STOPPING_REASONS",
    "TopKResult",
    "FilterResult",
]

#: Why an adaptive run returned, in the engine's precedence order.
STOPPING_REASONS = ("converged", "deadline", "cell_budget", "sample_cap", "cancelled")


@dataclass(frozen=True)
class GuaranteeStatus:
    """Whether a query delivered its Definition 5/6 guarantee, and if not, why.

    Every SWOPE query result carries one of these. An unbudgeted,
    uncancelled run always reports ``stopping_reason="converged"`` and
    ``guarantee_met=True``; a run truncated by a
    :class:`~repro.core.budget.QueryBudget` or a
    :class:`~repro.core.budget.CancellationToken` reports the limit that
    fired and the error parameter it *actually* achieved, back-solved
    from the final interval widths.

    Attributes
    ----------
    guarantee_met:
        True iff the paper's stopping rule fired (equivalently,
        ``stopping_reason == "converged"``).
    stopping_reason:
        One of :data:`STOPPING_REASONS`: ``converged`` (the stopping
        rule fired), ``deadline`` (wall-clock budget), ``cell_budget``
        (cells-scanned budget), ``sample_cap`` (sample-size budget), or
        ``cancelled`` (cooperative cancellation).
    requested_epsilon:
        The ``ε`` the caller asked for.
    achieved_epsilon:
        The smallest ``ε`` for which the returned answer satisfies the
        Definition 5/6 contract given the final intervals. For top-k
        this is ``w_max / Ū_k`` (the stopping quantity itself), so a
        converged run reports a value ``<= requested_epsilon``; a
        truncated run reports the (larger, but still finite and valid)
        value the intervals support. For filtering, converged runs
        report the requested ``ε`` and truncated runs the width-implied
        ``max(ε, w_max / 2η)`` over the undecided attributes.
    undecided:
        Filtering only: attributes whose interval still straddled the
        threshold band when the run stopped. They are resolved
        best-effort (by interval midpoint) in the returned answer, but
        carry no Definition 6 guarantee. Empty for top-k queries and for
        converged runs.
    """

    guarantee_met: bool
    stopping_reason: str
    requested_epsilon: float
    achieved_epsilon: float
    undecided: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.stopping_reason not in STOPPING_REASONS:
            raise ResultConsistencyError(
                f"unknown stopping reason {self.stopping_reason!r};"
                f" expected one of {STOPPING_REASONS}"
            )
        if self.guarantee_met != (self.stopping_reason == "converged"):
            raise ResultConsistencyError(
                "guarantee_met must mirror stopping_reason == 'converged';"
                f" got guarantee_met={self.guarantee_met} with"
                f" stopping_reason={self.stopping_reason!r}"
            )


@dataclass(frozen=True)
class AttributeEstimate:
    """Final state of one attribute's score estimate when a query returned.

    Attributes
    ----------
    attribute:
        Attribute name (for MI queries, the candidate attribute — the
        target is recorded on the result object).
    estimate:
        The point estimate the algorithm would report (interval midpoint
        for SWOPE, plug-in sample score for the baselines, exact score for
        the exact algorithm).
    lower, upper:
        Confidence bounds at the moment the attribute's fate was decided.
        For exact computation ``lower == estimate == upper``.
    sample_size:
        Sample size at which the attribute was last evaluated.
    """

    attribute: str
    estimate: float
    lower: float
    upper: float
    sample_size: int

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:
            raise ResultConsistencyError(
                f"estimate bounds inverted for {self.attribute!r}:"
                f" [{self.lower}, {self.upper}]"
            )


@dataclass
class RunStats:
    """Work accounting for one query execution.

    Attributes
    ----------
    iterations:
        Number of sampling iterations executed (1 for the exact baseline).
    final_sample_size:
        ``M`` when the algorithm stopped (equals ``N`` for exact).
    population_size:
        ``N`` of the queried dataset.
    cells_scanned:
        Total attribute values read from the dataset — the
        machine-independent cost metric reported next to wall-clock time
        in the experiment harness.
    wall_seconds:
        Wall-clock duration of the query as measured by the algorithm
        itself (monotonic clock).
    candidates_pruned:
        Attributes eliminated from the candidate set before the final
        iteration (0 when pruning is disabled or never fires).
    counting_seconds:
        Wall-clock time spent gathering and histogramming sample blocks
        (the data-touching phase charged by the cells-scanned model).
        Zero for algorithms that do not report phase timings.
    bounds_seconds:
        Wall-clock time spent computing entropies and Lemma 1–3
        confidence intervals from the counts. Zero when not reported.
    trace_event_count:
        Number of structured trace events the run emitted to its
        :class:`~repro.obs.sinks.TraceSink` (0 when tracing was disabled
        or no sink was given).
    cells_saved:
        Attribute values *not* read because the plan cache supplied them
        (warm-started counters, or a whole served answer). The
        cache-efficiency complement of ``cells_scanned``: a cold run has
        0 here, and ``cells_scanned + cells_saved`` approximates what
        the same query would have cost cold.
    """

    iterations: int = 0
    final_sample_size: int = 0
    population_size: int = 0
    cells_scanned: int = 0
    wall_seconds: float = 0.0
    candidates_pruned: int = 0
    counting_seconds: float = 0.0
    bounds_seconds: float = 0.0
    trace_event_count: int = 0
    cells_saved: int = 0

    @property
    def sample_fraction(self) -> float:
        """``M / N`` at termination — 1.0 means the whole dataset was read."""
        if self.population_size == 0:
            return 0.0
        return self.final_sample_size / self.population_size

    @property
    def loop_seconds(self) -> float:
        """Wall-clock time outside counting and bounds (stopping rules,
        pruning, tracing — the interpreted part of the adaptive loop)."""
        return max(0.0, self.wall_seconds - self.counting_seconds - self.bounds_seconds)


@dataclass
class TopKResult:
    """Answer of a top-k query (entropy or mutual information).

    Attributes
    ----------
    attributes:
        The returned attribute names, ordered by decreasing score
        estimate (the paper orders the approximate answer by upper bound;
        exact algorithms by exact score).
    estimates:
        One :class:`AttributeEstimate` per returned attribute, same order.
    stats:
        Work accounting for the run.
    target:
        The target attribute ``α_t`` for MI queries; ``None`` for entropy.
    k:
        The requested ``k`` (may exceed ``len(attributes)`` when the
        dataset has fewer candidates than ``k``).
    guarantee:
        :class:`GuaranteeStatus` of the run. Always set by the SWOPE
        queries; ``None`` for exact/baseline algorithms, which have no
        sampling guarantee to report.
    """

    attributes: list[str]
    estimates: list[AttributeEstimate]
    stats: RunStats
    k: int
    target: str | None = None
    guarantee: GuaranteeStatus | None = None

    def __post_init__(self) -> None:
        if len(self.attributes) != len(self.estimates):
            raise ResultConsistencyError(
                f"{len(self.attributes)} attributes but"
                f" {len(self.estimates)} estimates"
            )

    def estimate_of(self, attribute: str) -> AttributeEstimate:
        """Look up the estimate of one returned attribute by name."""
        for est in self.estimates:
            if est.attribute == attribute:
                return est
        raise UnknownAttributeError(
            f"attribute {attribute!r} is not part of this answer"
        )

    def scores(self) -> dict[str, float]:
        """``{attribute: point estimate}`` for the returned attributes."""
        return {est.attribute: est.estimate for est in self.estimates}


@dataclass
class FilterResult:
    """Answer of a filtering (threshold) query.

    Attributes
    ----------
    attributes:
        The returned set of attribute names, ordered by decreasing score
        estimate.
    estimates:
        Estimates for *every* attribute the query examined (returned and
        rejected alike), keyed by name — useful for diagnostics and for
        the accuracy metrics.
    stats:
        Work accounting for the run.
    threshold:
        The query threshold ``η``.
    target:
        The target attribute for MI queries; ``None`` for entropy.
    guarantee:
        :class:`GuaranteeStatus` of the run (``None`` for baselines).
        Truncated runs list their unresolved attributes in
        ``guarantee.undecided``.
    """

    attributes: list[str]
    estimates: dict[str, AttributeEstimate] = field(default_factory=dict)
    stats: RunStats = field(default_factory=RunStats)
    threshold: float = 0.0
    target: str | None = None
    guarantee: GuaranteeStatus | None = None

    def __contains__(self, attribute: object) -> bool:
        return attribute in set(self.attributes)

    def answer_set(self) -> frozenset[str]:
        """The returned attributes as a set (order-free comparisons)."""
        return frozenset(self.attributes)
