"""Downstream applications built on the SWOPE queries.

The paper motivates its queries with concrete data-mining tasks; this
subpackage implements two of them end to end:

* :mod:`repro.applications.feature_selection` — Max-Relevance, threshold,
  and greedy mRMR selectors (paper refs [12, 19, 24, 26, 31, 39]);
* :mod:`repro.applications.decision_tree` — ID3-style trees whose split
  choices are MI top-1 queries (paper refs [3, 27, 33]).
"""

from repro.applications.decision_tree import DecisionNode, EntropyTreeClassifier
from repro.applications.feature_selection import (
    SelectionResult,
    mrmr_select,
    threshold_select,
    top_relevance_select,
)

__all__ = [
    "DecisionNode",
    "EntropyTreeClassifier",
    "SelectionResult",
    "mrmr_select",
    "threshold_select",
    "top_relevance_select",
]
