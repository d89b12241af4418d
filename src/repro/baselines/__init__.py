"""Baseline algorithms the paper evaluates SWOPE against.

* :mod:`repro.baselines.exact` — full-scan exact scores and query answers
  (the "Exact" competitor and the ground truth for accuracy metrics);
* :mod:`repro.baselines.entropy_rank` / :mod:`repro.baselines.entropy_filter`
  — EntropyRank/EntropyFilter of Wang & Ding (KDD'19), the state of the art
  the paper improves on;
* :mod:`repro.baselines.mi_rank` / :mod:`repro.baselines.mi_filter` — the
  same exact stopping rules over mutual-information bounds (Section 6.3
  competitors).

The four adaptive baselines run the engine's loops
(:func:`repro.core.engine.adaptive_top_k`/:func:`~repro.core.engine.adaptive_filter`)
with ``epsilon=None``, the exact stopping rule, so they differ from SWOPE
only in that rule.
"""

from repro.baselines.entropy_filter import entropy_filter
from repro.baselines.entropy_rank import entropy_rank_top_k
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
from repro.baselines.mi_filter import entropy_filter_mutual_information
from repro.baselines.mi_rank import entropy_rank_top_k_mutual_information

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
