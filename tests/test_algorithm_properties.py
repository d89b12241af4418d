"""Property-based tests of the full query algorithms (hypothesis).

Fuzzes the four SWOPE queries and the two exact-answer baselines over
randomly-shaped small stores — skewed columns, constants, binary flags,
duplicated columns, tiny supports — and asserts the *contracts*, not
point answers:

* SWOPE answers always satisfy Definitions 5/6 against exact scores,
  also at the boundaries: η exactly equal to an exact score, and a
  constant (u = 1) MI target;
* the baselines always return the exact answer;
* invariants of the result objects hold (ordering, bounds, stats).

Sizes are deliberately tiny (hundreds of rows) so hypothesis can explore
many shapes; the statistical heavy lifting lives in test_guarantees.py.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import entropy_filter, entropy_rank_top_k
from repro.baselines.exact import exact_entropies, exact_mutual_informations
from repro.core.swope import (
    swope_filter_entropy,
    swope_filter_mutual_information,
    swope_top_k_entropy,
    swope_top_k_mutual_information,
)
from repro.data.column_store import ColumnStore
from repro.experiments.accuracy import (
    check_filter_guarantee,
    check_top_k_guarantee,
)

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def stores(draw) -> ColumnStore:
    """A random small store with adversarially mixed column shapes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    num_rows = draw(st.integers(min_value=50, max_value=400))
    num_columns = draw(st.integers(min_value=2, max_value=6))
    columns: dict[str, np.ndarray] = {}
    for index in range(num_columns):
        kind = draw(st.sampled_from(["uniform", "skewed", "constant", "binary", "dup"]))
        if kind == "constant":
            col = np.zeros(num_rows, dtype=np.int64)
        elif kind == "binary":
            col = (rng.random(num_rows) < draw(st.floats(0.01, 0.99))).astype(np.int64)
        elif kind == "skewed":
            u = draw(st.integers(2, 30))
            col = np.minimum(
                rng.geometric(draw(st.floats(0.05, 0.9)), num_rows) - 1, u - 1
            ).astype(np.int64)
        elif kind == "dup" and columns:
            col = next(iter(columns.values())).copy()
        else:
            u = draw(st.integers(2, 50))
            col = rng.integers(0, u, num_rows)
        columns[f"c{index}"] = col
    return ColumnStore(columns)


#: ``None`` keeps the drawn threshold; an index replaces it with that
#: attribute's exact score, so η sits exactly on a score.
_ON_A_SCORE = st.none() | st.integers(0, 5)


def _threshold(drawn: float, exact: dict[str, float], index: int | None) -> float:
    if index is None:
        return drawn
    return list(exact.values())[index % len(exact)]


def _with_constant(store: ColumnStore, name: str) -> ColumnStore:
    """``store`` with column ``name`` replaced by a constant (u = 1)."""
    return ColumnStore(
        {
            other: (
                np.zeros(store.num_rows, dtype=np.int64)
                if other == name
                else store.column(other)
            )
            for other in store.attributes
        }
    )


class TestTopKContract:
    @given(store=stores(), k=st.integers(1, 4), epsilon=st.floats(0.05, 0.9))
    @_SETTINGS
    def test_definition5_always_holds(self, store, k, epsilon):
        exact = exact_entropies(store)
        result = swope_top_k_entropy(store, k, epsilon=epsilon, seed=0)
        assert check_top_k_guarantee(result, exact, epsilon) == []
        assert len(result.attributes) == min(k, store.num_attributes)
        uppers = [e.upper for e in result.estimates]
        assert uppers == sorted(uppers, reverse=True)
        for est in result.estimates:
            assert est.lower <= est.estimate <= est.upper
        assert 1 <= result.stats.final_sample_size <= store.num_rows

    @given(store=stores(), k=st.integers(1, 3))
    @_SETTINGS
    def test_entropy_rank_always_exact(self, store, k):
        exact = exact_entropies(store)
        result = entropy_rank_top_k(store, k, seed=0)
        k_eff = min(k, store.num_attributes)
        returned_scores = sorted((exact[a] for a in result.attributes), reverse=True)
        true_scores = sorted(exact.values(), reverse=True)[:k_eff]
        # With exact ties the chosen *names* may differ; the score
        # multiset must match exactly.
        assert returned_scores == pytest.approx(true_scores, abs=1e-9)


class TestFilterContract:
    @given(
        store=stores(),
        threshold=st.floats(0.0, 6.0),
        epsilon=st.floats(0.05, 0.9),
        on_score=_ON_A_SCORE,
    )
    @_SETTINGS
    def test_definition6_always_holds(self, store, threshold, epsilon, on_score):
        exact = exact_entropies(store)
        threshold = _threshold(threshold, exact, on_score)
        result = swope_filter_entropy(store, threshold, epsilon=epsilon, seed=0)
        assert check_filter_guarantee(result, exact, epsilon) == []
        assert set(result.estimates) == set(store.attributes)

    @given(store=stores(), threshold=st.floats(0.0, 6.0))
    @_SETTINGS
    def test_entropy_filter_always_exact(self, store, threshold):
        exact = exact_entropies(store)
        result = entropy_filter(store, threshold, seed=0)
        expected = {a for a, s in exact.items() if s >= threshold}
        assert result.answer_set() == expected


class TestMIContract:
    @given(
        store=stores(), epsilon=st.floats(0.2, 0.9), constant_target=st.booleans()
    )
    @_SETTINGS
    def test_mi_topk_definition5(self, store, epsilon, constant_target):
        target = store.attributes[0]
        if constant_target:
            store = _with_constant(store, target)
        exact = exact_mutual_informations(store, target)
        result = swope_top_k_mutual_information(
            store, target, 1, epsilon=epsilon, seed=0
        )
        assert check_top_k_guarantee(result, exact, epsilon) == []
        assert target not in result.attributes

    @given(
        store=stores(),
        threshold=st.floats(0.0, 2.0),
        epsilon=st.floats(0.2, 0.9),
        on_score=_ON_A_SCORE,
    )
    @_SETTINGS
    def test_mi_filter_definition6(self, store, threshold, epsilon, on_score):
        target = store.attributes[0]
        exact = exact_mutual_informations(store, target)
        threshold = _threshold(threshold, exact, on_score)
        result = swope_filter_mutual_information(
            store, target, threshold, epsilon=epsilon, seed=0
        )
        assert check_filter_guarantee(result, exact, epsilon) == []
        assert set(result.estimates) == set(exact)
