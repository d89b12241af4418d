"""Baseline algorithms the paper evaluates SWOPE against.

* :mod:`repro.baselines.exact` — full-scan exact scores and query answers
  (the "Exact" competitor and the ground truth for accuracy metrics);
* :mod:`repro.baselines.exact_stopping` — EntropyRank/EntropyFilter of
  Wang & Ding (KDD'19), the state of the art the paper improves on, and
  the same exact stopping rules over mutual-information bounds (the
  Section 6.3 competitors).

The four adaptive baselines build a :class:`~repro.core.plan.QuerySpec`
and run it through :func:`repro.core.plan.run_exact_stopping`, which
wires it like a SWOPE query and enters the engine's loop with the exact
stopping rule, so they differ from SWOPE only in that rule.
"""

from repro.baselines.exact import (
    exact_entropies,
    exact_entropy,
    exact_filter_entropy,
    exact_filter_mutual_information,
    exact_joint_entropy,
    exact_mutual_information,
    exact_mutual_informations,
    exact_top_k_entropy,
    exact_top_k_mutual_information,
)
from repro.baselines.exact_stopping import (
    entropy_filter,
    entropy_filter_mutual_information,
    entropy_rank_top_k,
    entropy_rank_top_k_mutual_information,
)

__all__ = [
    "entropy_filter",
    "entropy_filter_mutual_information",
    "entropy_rank_top_k",
    "entropy_rank_top_k_mutual_information",
    "exact_entropies",
    "exact_entropy",
    "exact_filter_entropy",
    "exact_filter_mutual_information",
    "exact_joint_entropy",
    "exact_mutual_information",
    "exact_mutual_informations",
    "exact_top_k_entropy",
    "exact_top_k_mutual_information",
]
