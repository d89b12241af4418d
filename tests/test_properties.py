"""Property-based tests (hypothesis) on the core invariants.

These encode the mathematical facts the algorithms rely on:

* entropy axioms on the plug-in estimator;
* interval structure of the Lemma 3 bounds (ordering, width identity,
  monotonicity, collapse at M = N);
* MI non-negativity and symmetry;
* permutation-invariance of count-based estimators;
* the encode/decode round trip;
* schedule structure for arbitrary shapes;
* two boundary cases of the queries: a run forced to M = N answers
  exactly, and identical columns tied at the k-th score are told apart
  the same way under every sampling layout.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import exact_entropies, exact_mutual_informations
from repro.core.bounds import (
    beta_sensitivity,
    bias_bound,
    entropy_interval,
    permutation_half_width,
)
from repro.core.estimators import (
    entropy_from_counts,
    mutual_information_from_counts,
)
from repro.core.schedule import SampleSchedule
from repro.core.swope import (
    swope_filter_entropy,
    swope_filter_mutual_information,
    swope_top_k_entropy,
    swope_top_k_mutual_information,
)
from repro.data.column_store import ColumnStore
from repro.data.encoding import encode_column
from repro.data.joint import JointCounter
from repro.experiments.accuracy import check_filter_guarantee, check_top_k_guarantee

counts_strategy = st.lists(
    st.integers(min_value=0, max_value=10_000), min_size=1, max_size=64
).map(lambda xs: np.array(xs, dtype=np.int64))


class TestEntropyProperties:
    @given(counts=counts_strategy)
    def test_entropy_bounded_by_log_support(self, counts):
        h = entropy_from_counts(counts)
        observed = int((counts > 0).sum())
        assert 0.0 <= h <= math.log2(max(observed, 1)) + 1e-9

    @given(counts=counts_strategy)
    def test_entropy_invariant_under_permutation(self, counts):
        shuffled = counts[::-1].copy()
        assert entropy_from_counts(counts) == pytest.approx(
            entropy_from_counts(shuffled)
        )

    @given(counts=counts_strategy, factor=st.integers(min_value=2, max_value=10))
    def test_entropy_scale_invariant(self, counts, factor):
        assert entropy_from_counts(counts) == pytest.approx(
            entropy_from_counts(counts * factor), abs=1e-9
        )

    @given(counts=counts_strategy)
    def test_zero_padding_is_noop(self, counts):
        padded = np.concatenate([counts, np.zeros(5, dtype=np.int64)])
        assert entropy_from_counts(padded) == pytest.approx(
            entropy_from_counts(counts)
        )


class TestMIProperties:
    @given(
        data=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=5),
            ),
            min_size=1,
            max_size=300,
        )
    )
    def test_mi_non_negative_and_symmetric(self, data):
        a = np.array([x for x, _ in data])
        b = np.array([y for _, y in data])
        ca = np.bincount(a, minlength=6)
        cb = np.bincount(b, minlength=6)
        ab = JointCounter(6, 6)
        ab.update(a, b)
        ba = JointCounter(6, 6)
        ba.update(b, a)
        mi_ab = mutual_information_from_counts(ca, cb, ab)
        mi_ba = mutual_information_from_counts(cb, ca, ba)
        assert mi_ab >= 0.0
        assert mi_ab == pytest.approx(mi_ba, abs=1e-9)

    @given(
        values=st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=200)
    )
    def test_self_mi_equals_entropy(self, values):
        a = np.array(values)
        counts = np.bincount(a, minlength=8)
        joint = JointCounter(8, 8)
        joint.update(a, a)
        assert mutual_information_from_counts(counts, counts, joint) == pytest.approx(
            entropy_from_counts(counts), abs=1e-9
        )


class TestBoundProperties:
    sizes = st.tuples(
        st.integers(min_value=2, max_value=10_000),
        st.integers(min_value=2, max_value=10_000),
    ).map(lambda t: (min(t), max(t)))

    @given(sizes=sizes, p=st.floats(min_value=1e-9, max_value=0.99))
    def test_half_width_non_negative(self, sizes, p):
        m, n = sizes
        assert permutation_half_width(m, n, p) >= 0.0

    @given(sizes=sizes, u=st.integers(min_value=1, max_value=100_000))
    def test_bias_bound_non_negative(self, sizes, u):
        m, n = sizes
        assert bias_bound(u, m, n) >= 0.0

    @given(
        sizes=sizes,
        u=st.integers(min_value=1, max_value=1000),
        h=st.floats(min_value=0.0, max_value=20.0),
        p=st.floats(min_value=1e-9, max_value=0.99),
    )
    def test_interval_structure(self, sizes, u, h, p):
        m, n = sizes
        iv = entropy_interval(h, u, m, n, p)
        assert 0.0 <= iv.lower <= iv.upper
        assert iv.lower <= h <= iv.upper
        assert iv.width == pytest.approx(2 * iv.half_width + iv.bias)
        if m == n:
            assert iv.lower == iv.upper == h

    @given(m=st.integers(min_value=2, max_value=10**6))
    def test_beta_below_paper_bound(self, m):
        assert beta_sensitivity(m) <= 2 * math.log2(m) / m + 1e-12


class TestEncodingProperties:
    @given(values=st.lists(st.text(max_size=5) | st.integers() | st.none()))
    def test_encode_round_trip(self, values):
        codes, vocab = encode_column(values)
        decoded = [vocab[c] for c in codes]
        assert decoded == values

    @given(values=st.lists(st.integers(min_value=-5, max_value=5), min_size=1))
    def test_codes_dense(self, values):
        codes, vocab = encode_column(values)
        assert codes.max() == len(vocab) - 1
        assert set(codes.tolist()) == set(range(len(vocab)))


class TestScheduleProperties:
    @given(
        n=st.integers(min_value=1, max_value=10**7),
        m0=st.integers(min_value=1, max_value=10**7),
        factor=st.floats(min_value=1.01, max_value=8.0),
    )
    @settings(max_examples=50)
    def test_schedule_covers_population(self, n, m0, factor):
        m0 = min(m0, n)
        schedule = SampleSchedule(
            population_size=n, initial_size=m0, growth_factor=factor
        )
        sizes = schedule.sizes
        assert sizes[0] == m0
        assert sizes[-1] == n
        assert all(a < b for a, b in zip(sizes, sizes[1:]))
        # geometric growth => logarithmically many iterations
        assert len(sizes) <= math.ceil(math.log(n / m0 + 1, factor)) + 2

    @given(
        n=st.integers(min_value=2, max_value=10**6),
        h=st.integers(min_value=1, max_value=500),
        pf=st.floats(min_value=1e-9, max_value=0.5),
        bounds=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=50)
    def test_failure_budget_union_bound(self, n, h, pf, bounds):
        schedule = SampleSchedule(population_size=n, initial_size=max(1, n // 8))
        per = schedule.per_round_failure(pf, h, bounds_per_attribute=bounds)
        total = per * schedule.num_iterations * h * bounds
        assert total == pytest.approx(pf, rel=1e-9)


class TestQueryBoundaryCases:
    @given(
        num_rows=st.integers(min_value=1, max_value=300),
        supports=st.lists(st.integers(min_value=1, max_value=12), min_size=2, max_size=5),
        data_seed=st.integers(min_value=0, max_value=2**32 - 1),
        k=st.integers(min_value=1, max_value=5),
        eta=st.floats(min_value=0.05, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_forced_full_scan_answers_exactly(
        self, num_rows, supports, data_seed, k, eta
    ):
        """A schedule whose only size is N: every interval collapses to
        the exact score, and Definitions 5 and 6 hold at any ε."""
        rng = np.random.default_rng(data_seed)
        store = ColumnStore(
            {f"c{i}": rng.integers(0, u, num_rows) for i, u in enumerate(supports)}
        )
        full = SampleSchedule(population_size=num_rows, initial_size=num_rows)
        assert tuple(full.sizes) == (num_rows,)
        exact = exact_entropies(store)
        target, *candidates = store.attributes
        exact_mi = exact_mutual_informations(store, target)
        epsilon = 0.01
        runs = [
            (swope_top_k_entropy(store, k, epsilon=epsilon, schedule=full), exact),
            (swope_filter_entropy(store, eta, epsilon=epsilon, schedule=full), exact),
            (swope_top_k_mutual_information(
                store, target, k, epsilon=epsilon, schedule=full), exact_mi),
            (swope_filter_mutual_information(
                store, target, eta, epsilon=epsilon, schedule=full), exact_mi),
        ]
        for result, scores in runs:
            estimates = (
                result.estimates.values()
                if isinstance(result.estimates, dict)
                else result.estimates
            )
            for est in estimates:
                assert est.sample_size == num_rows
                assert est.lower == pytest.approx(scores[est.attribute], abs=1e-9)
                assert est.upper == pytest.approx(scores[est.attribute], abs=1e-9)
            check = (
                check_top_k_guarantee
                if hasattr(result, "k")
                else check_filter_guarantee
            )
            assert not check(result, scores, epsilon)
            assert result.guarantee is None or result.guarantee.guarantee_met

    @given(
        num_rows=st.integers(min_value=512, max_value=4096),
        k=st.integers(min_value=1, max_value=3),
        data_seed=st.integers(min_value=0, max_value=2**32 - 1),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_identical_columns_tied_at_rank_k(self, num_rows, k, data_seed, seed):
        """Two identical columns hold ranks k and k + 1: either is a valid
        k-th answer, and the run picks the same one under every layout."""
        rng = np.random.default_rng(data_seed)
        twin = rng.integers(0, 8, num_rows)  # about 3 bits
        columns = {f"high{i}": rng.integers(0, 64, num_rows) for i in range(k - 1)}
        columns.update(
            twin_a=twin, twin_b=twin.copy(), low=rng.integers(0, 2, num_rows)
        )
        store = ColumnStore(columns)
        exact = exact_entropies(store)
        assert exact["twin_a"] == exact["twin_b"]
        answers = set()
        for layout_seed in range(4):
            result = swope_top_k_entropy(
                store, k, epsilon=0.1, seed=seed, layout_seed=layout_seed
            )
            assert not check_top_k_guarantee(result, exact, 0.1)
            assert len({"twin_a", "twin_b"} & set(result.attributes)) == 1
            answers.add(frozenset(result.attributes))
        assert len(answers) == 1

