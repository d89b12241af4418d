"""Tests for the Dataset facade and its trace diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Dataset, InMemorySink
from repro.data.column_store import ColumnStore
from repro.exceptions import SchemaError, UnknownAttributeError


@pytest.fixture(scope="module")
def survey() -> Dataset:
    rng = np.random.default_rng(2)
    n = 4000
    region = rng.integers(0, 40, n)
    income = np.where(rng.random(n) < 0.7, region % 8, rng.integers(0, 8, n))
    return Dataset.from_table(
        {
            "region": [f"r{v}" for v in region],
            "income": income.tolist(),
            "flag": (rng.random(n) < 0.1).astype(int).tolist(),
        }
    )


class TestConstruction:
    def test_from_table(self, survey):
        assert survey.num_rows == 4000
        assert survey.attributes == ("region", "income", "flag")
        assert survey.encoder is not None

    def test_from_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\nx,1\ny,2\nx,1\n")
        ds = Dataset.from_csv(path)
        assert ds.num_rows == 3
        assert ds.decode("a", ds.store.column("a")[:2]) == ["x", "y"]

    def test_wrap_pre_encoded_store(self):
        store = ColumnStore({"a": np.array([0, 1, 1])})
        ds = Dataset(store)
        assert ds.encoder is None
        with pytest.raises(SchemaError, match="no encoder"):
            ds.decode("a", [0])


class TestQueries:
    def test_top_k_entropy(self, survey):
        result = survey.top_k_entropy(1, seed=0)
        assert result.attributes == ["region"]

    def test_filter_entropy(self, survey):
        result = survey.filter_entropy(2.0, seed=0)
        assert "region" in result
        assert "flag" not in result

    def test_mi_queries(self, survey):
        top = survey.top_k_mutual_information("income", 1, seed=0)
        assert top.attributes == ["region"]
        kept = survey.filter_mutual_information("income", 0.5, seed=0)
        assert "region" in kept

    def test_exact_scores(self, survey):
        entropies = survey.entropies()
        assert set(entropies) == set(survey.attributes)
        mis = survey.mutual_informations("income")
        assert set(mis) == {"region", "flag"}
        assert mis["region"] > mis["flag"]


class TestConveniences:
    def test_value_distribution_decoded(self, survey):
        dist = survey.value_distribution("region")
        assert all(isinstance(k, str) and k.startswith("r") for k in dist)
        assert sum(dist.values()) == survey.num_rows

    def test_value_distribution_without_encoder(self):
        ds = Dataset(ColumnStore({"a": np.array([0, 0, 2])}))
        assert ds.value_distribution("a") == {0: 2, 2: 1}

    def test_without_high_support(self, survey):
        filtered = survey.without_high_support(max_support=10)
        assert "region" not in filtered.attributes
        assert "income" in filtered.attributes
        # the encoder travels with the filtered view
        assert filtered.encoder is survey.encoder


class TestQueryTrace:
    def test_topk_trace_structure(self, survey):
        sink = InMemorySink()
        survey.top_k_entropy(1, seed=0, epsilon=0.05, trace=sink)
        iterations = sink.of_kind("iteration")
        assert iterations
        sizes = [t.sample_size for t in iterations]
        assert sizes == sorted(sizes)
        assert all(not t.stopped for t in iterations[:-1])
        assert iterations[-1].stopped

    def test_widths_monotone_down(self, survey):
        sink = InMemorySink()
        survey.top_k_entropy(1, seed=0, epsilon=0.05, trace=sink)
        widths = [w for _, w in sink.widths("region")]
        assert len(widths) >= 2
        assert all(a >= b - 1e-9 for a, b in zip(widths, widths[1:]))

    def test_filter_trace_records_decisions(self, survey):
        sink = InMemorySink()
        survey.filter_entropy(2.0, seed=0, trace=sink)
        decided = [a for t in sink.of_kind("iteration") for a in t.decided]
        assert sorted(decided) == sorted(survey.attributes)

    def test_mi_trace(self, survey):
        sink = InMemorySink()
        survey.top_k_mutual_information("income", 1, seed=0, trace=sink)
        iterations = sink.of_kind("iteration")
        assert iterations
        assert "region" in iterations[0].bounds

    def test_widths_for_unknown_attribute_raises(self, survey):
        sink = InMemorySink()
        survey.top_k_entropy(1, seed=0, trace=sink)
        with pytest.raises(UnknownAttributeError, match="ghost"):
            sink.widths("ghost")

    def test_widths_for_pruned_attribute_still_works(self, survey):
        # An attribute decided early stops appearing in later iterations'
        # bounds but must not be treated as unknown.
        sink = InMemorySink()
        survey.filter_entropy(2.0, seed=0, trace=sink)
        for attribute in survey.attributes:
            assert sink.widths(attribute)
