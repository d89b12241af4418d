"""Core SWOPE algorithms: bounds, schedule, and the four query functions.

The primary contribution of the paper lives here:

* :mod:`repro.core.bounds` — Lemmas 1–4 (bias bound, permutation
  concentration, confidence intervals, sample-size law);
* :mod:`repro.core.schedule` — ``M0``, doubling schedule, failure budgets;
* :mod:`repro.core.engine` — the shared adaptive loop and score providers;
* :mod:`repro.core.plan` — declarative :class:`~repro.core.plan.QuerySpec`
  batches, the planner, and the shared-scan
  :class:`~repro.core.plan.PlanExecutor`;
* :func:`~repro.core.topk.swope_top_k_entropy` — Algorithm 1;
* :func:`~repro.core.filtering.swope_filter_entropy` — Algorithm 2;
* :func:`~repro.core.mi_topk.swope_top_k_mutual_information` — Algorithm 3;
* :func:`~repro.core.mi_filtering.swope_filter_mutual_information` —
  Algorithm 4.
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
from repro.core.filtering import swope_filter_entropy
from repro.core.mi_filtering import swope_filter_mutual_information
from repro.core.mi_topk import swope_top_k_mutual_information
from repro.core.plan import (
    PlanExecutor,
    PlanResult,
    PlanStats,
    QueryPlan,
    QuerySpec,
    load_plan,
    plan_queries,
    run_query_spec,
)
from repro.core.results import (
    AttributeEstimate,
    FilterResult,
    GuaranteeStatus,
    RunStats,
    TopKResult,
)
from repro.core.schedule import SampleSchedule, initial_sample_size, max_iterations
from repro.core.session import QuerySession
from repro.core.topk import swope_top_k_entropy

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
    "QuerySession",
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
    "run_query_spec",
    "sample_size_for_width",
    "swope_filter_entropy",
    "swope_filter_mutual_information",
    "swope_top_k_entropy",
    "swope_top_k_mutual_information",
]
