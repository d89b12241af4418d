"""Core SWOPE algorithms: bounds, schedule, and the four query functions.

The primary contribution of the paper lives here:

* :mod:`repro.core.bounds` — Lemmas 1–4 (bias bound, permutation
  concentration, confidence intervals, sample-size law);
* :mod:`repro.core.schedule` — ``M0``, doubling schedule, failure budgets;
* :mod:`repro.core.engine` — the shared adaptive loop and score providers;
* :mod:`repro.core.plan` — declarative :class:`~repro.core.plan.QuerySpec`
  batches, the planner, and the shared-scan
  :class:`~repro.core.plan.PlanExecutor`;
* :mod:`repro.core.swope` — Algorithms 1–4 as one-query functions
  (:func:`~repro.core.swope.swope_top_k_entropy`,
  :func:`~repro.core.swope.swope_filter_entropy`,
  :func:`~repro.core.swope.swope_top_k_mutual_information`,
  :func:`~repro.core.swope.swope_filter_mutual_information`), each a
  one-spec :class:`~repro.core.plan.PlanExecutor` run.
"""

from repro.core.bounds import (
    ConfidenceInterval,
    MutualInformationInterval,
    beta_sensitivity,
    bias_bound,
    entropy_interval,
    entropy_intervals,
    joint_entropy_interval,
    mi_intervals,
    mutual_information_interval,
    permutation_half_width,
    sample_size_for_width,
)
from repro.core.budget import CancellationToken, QueryBudget
from repro.core.engine import (
    EntropyScoreProvider,
    MutualInformationScoreProvider,
    PhaseTimings,
    default_failure_probability,
)
from repro.core.estimators import (
    entropy_from_counts,
    entropy_from_probabilities,
    joint_entropy_from_counter,
    mutual_information_from_counts,
)
from repro.core.plan import (
    PlanExecutor,
    PlanResult,
    PlanStats,
    QueryPlan,
    QuerySpec,
    load_plan,
    plan_queries,
)
from repro.core.results import (
    AttributeEstimate,
    FilterResult,
    GuaranteeStatus,
    RunStats,
    TopKResult,
)
from repro.core.schedule import SampleSchedule, initial_sample_size, max_iterations
from repro.core.swope import (
    swope_filter_entropy,
    swope_filter_mutual_information,
    swope_top_k_entropy,
    swope_top_k_mutual_information,
)

__all__ = [
    "AttributeEstimate",
    "CancellationToken",
    "ConfidenceInterval",
    "EntropyScoreProvider",
    "FilterResult",
    "GuaranteeStatus",
    "MutualInformationInterval",
    "PhaseTimings",
    "PlanExecutor",
    "PlanResult",
    "PlanStats",
    "QueryBudget",
    "QueryPlan",
    "QuerySpec",
    "MutualInformationScoreProvider",
    "RunStats",
    "SampleSchedule",
    "TopKResult",
    "beta_sensitivity",
    "bias_bound",
    "default_failure_probability",
    "entropy_from_counts",
    "entropy_from_probabilities",
    "entropy_interval",
    "entropy_intervals",
    "initial_sample_size",
    "joint_entropy_from_counter",
    "joint_entropy_interval",
    "load_plan",
    "max_iterations",
    "mi_intervals",
    "mutual_information_from_counts",
    "mutual_information_interval",
    "permutation_half_width",
    "plan_queries",
    "sample_size_for_width",
    "swope_filter_entropy",
    "swope_filter_mutual_information",
    "swope_top_k_entropy",
    "swope_top_k_mutual_information",
]
