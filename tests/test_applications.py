"""Tests for the downstream application layer (repro.applications)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.applications.decision_tree import EntropyTreeClassifier
from repro.applications.feature_selection import (
    mrmr_select,
    threshold_select,
    top_relevance_select,
)
from repro.data.column_store import ColumnStore
from repro.exceptions import ParameterError, SchemaError


@pytest.fixture(scope="module")
def labelled_store():
    """Label = f(x1, x2); x1_dup duplicates x1 (redundant); noise is junk."""
    rng = np.random.default_rng(21)
    n = 8000
    x1 = rng.integers(0, 4, n)
    x2 = rng.integers(0, 4, n)
    x1_dup = x1.copy()
    noise = rng.integers(0, 4, n)
    # Each of x1, x2 carries one marginal bit about the label (an
    # XOR-style label would give them zero *marginal* MI and break every
    # greedy information-gain method by design).
    label = (x1 >= 2).astype(np.int64) * 2 + (x2 >= 2).astype(np.int64)
    flip = rng.random(n) < 0.05
    label = np.where(flip, rng.integers(0, 4, n), label)
    return ColumnStore(
        {"x1": x1, "x2": x2, "x1_dup": x1_dup, "noise": noise, "label": label}
    )


class TestTopRelevance:
    @pytest.mark.parametrize("engine", ["swope", "exact"])
    def test_selects_informative_features(self, labelled_store, engine):
        result = top_relevance_select(
            labelled_store, "label", 2, engine=engine, seed=0
        )
        assert set(result.features) <= {"x1", "x2", "x1_dup"}
        assert result.engine == engine
        assert result.cells_scanned > 0

    def test_swope_cheaper_than_exact(self, labelled_store):
        swope = top_relevance_select(labelled_store, "label", 2, engine="swope")
        exact = top_relevance_select(labelled_store, "label", 2, engine="exact")
        assert swope.cells_scanned <= exact.cells_scanned

    def test_invalid_engine(self, labelled_store):
        with pytest.raises(ParameterError):
            top_relevance_select(labelled_store, "label", 1, engine="magic")

    def test_invalid_count(self, labelled_store):
        with pytest.raises(ParameterError):
            top_relevance_select(labelled_store, "label", 0)


class TestThresholdSelect:
    @pytest.mark.parametrize("engine", ["swope", "exact"])
    def test_keeps_only_informative(self, labelled_store, engine):
        result = threshold_select(
            labelled_store, "label", 0.5, engine=engine, seed=0
        )
        assert "noise" not in result.features
        assert {"x1", "x2", "x1_dup"} <= set(result.features)

    def test_huge_threshold_empty(self, labelled_store):
        result = threshold_select(labelled_store, "label", 10.0, seed=0)
        assert result.features == []


class TestMrmr:
    @pytest.mark.parametrize("engine", ["swope", "exact"])
    def test_avoids_redundant_duplicate(self, labelled_store, engine):
        # x1 and x1_dup are identical; mRMR must not pick both into a
        # 2-feature set (their mutual redundancy equals their relevance).
        result = mrmr_select(labelled_store, "label", 2, engine=engine, seed=0)
        assert len(result.features) == 2
        assert not {"x1", "x1_dup"} <= set(result.features)
        assert set(result.features) & {"x1", "x1_dup"}
        assert "x2" in result.features

    def test_agrees_across_engines(self, labelled_store):
        swope = mrmr_select(labelled_store, "label", 2, engine="swope", seed=0)
        exact = mrmr_select(labelled_store, "label", 2, engine="exact", seed=0)
        normalise = lambda fs: {"x1" if f == "x1_dup" else f for f in fs}
        assert normalise(swope.features) == normalise(exact.features)

    def test_shortlist_validation(self, labelled_store):
        with pytest.raises(ParameterError, match="shortlist"):
            mrmr_select(labelled_store, "label", 3, shortlist=2)

    def test_selection_order_recorded(self, labelled_store):
        result = mrmr_select(labelled_store, "label", 3, engine="exact")
        assert len(result.features) == 3
        assert len(set(result.features)) == 3


class TestDecisionTree:
    @pytest.mark.parametrize("engine", ["swope", "exact"])
    def test_learns_the_concept(self, labelled_store, engine):
        tree = EntropyTreeClassifier(
            max_depth=2, min_rows=200, engine=engine, seed=0
        )
        tree.fit(labelled_store, "label", features=["x1", "x2", "noise"])
        # label = (x1 + x2) % 4 with 5% noise: a depth-2 tree over x1, x2
        # should be nearly perfect.
        assert tree.accuracy(labelled_store) > 0.9
        assert tree.root is not None
        assert tree.root.split in ("x1", "x2")

    def test_engines_agree_on_splits(self, labelled_store):
        # At this dataset size SWOPE's sampling advantage is modest (the
        # per-node populations are small), so the meaningful check is
        # structural agreement at a comparable cost, not a speedup.
        kwargs = dict(max_depth=2, min_rows=200, seed=0)
        swope = EntropyTreeClassifier(engine="swope", **kwargs).fit(
            labelled_store, "label", features=["x1", "x2", "noise"]
        )
        exact = EntropyTreeClassifier(engine="exact", **kwargs).fit(
            labelled_store, "label", features=["x1", "x2", "noise"]
        )
        assert swope.root is not None and exact.root is not None
        assert swope.root.split == exact.root.split
        assert swope.cells_scanned <= 2 * exact.cells_scanned

    def test_min_gain_prunes_uninformative_splits(self, labelled_store):
        tree = EntropyTreeClassifier(
            max_depth=3, min_rows=100, min_gain=0.05, engine="exact"
        )
        tree.fit(labelled_store, "label", features=["noise"])
        assert tree.root is not None
        assert tree.root.is_leaf  # noise has ~0 gain

    def test_predict_before_fit_raises(self, labelled_store):
        tree = EntropyTreeClassifier()
        with pytest.raises(ParameterError, match="not fitted"):
            tree.predict(labelled_store)

    def test_unknown_label_raises(self, labelled_store):
        with pytest.raises(SchemaError):
            EntropyTreeClassifier().fit(labelled_store, "ghost")

    def test_label_as_feature_raises(self, labelled_store):
        with pytest.raises(ParameterError):
            EntropyTreeClassifier().fit(
                labelled_store, "label", features=["label", "x1"]
            )

    def test_node_count(self, labelled_store):
        tree = EntropyTreeClassifier(max_depth=1, engine="exact").fit(
            labelled_store, "label", features=["x1", "x2"]
        )
        # root + one child per value of the chosen 4-valued attribute
        assert tree.node_count() == 5

    def test_predict_subset_of_rows(self, labelled_store):
        tree = EntropyTreeClassifier(max_depth=2, engine="exact").fit(
            labelled_store, "label", features=["x1", "x2"]
        )
        rows = np.arange(100)
        predictions = tree.predict(labelled_store, rows)
        assert predictions.shape == (100,)
        assert set(predictions.tolist()) <= set(range(4))
