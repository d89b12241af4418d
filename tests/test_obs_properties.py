"""Property-based tests for trace-event and metrics invariants.

Hypothesis drives randomly shaped stores, seeds, and query parameters
through the engine and checks structural invariants of the event stream
and the metrics reconciliation — things the golden traces pin for four
fixed runs, generalised to arbitrary runs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import SampleSchedule
from repro.core.swope import (
    swope_filter_entropy,
    swope_top_k_entropy,
)
from repro.data.column_store import ColumnStore
from repro.obs import InMemorySink, MetricsRegistry

WIDTH_SLACK = 1e-9

store_params = st.fixed_dictionaries(
    {
        "num_rows": st.integers(min_value=256, max_value=1500),
        "supports": st.lists(
            st.integers(min_value=2, max_value=32), min_size=2, max_size=5
        ),
        "data_seed": st.integers(min_value=0, max_value=10_000),
    }
)


def _build_store(params: dict) -> ColumnStore:
    rng = np.random.default_rng(params["data_seed"])
    n = params["num_rows"]
    return ColumnStore(
        {
            f"col{i}": rng.integers(0, support, n)
            for i, support in enumerate(params["supports"])
        }
    )


def _run_traced(params: dict, seed: int, kind: str):
    store = _build_store(params)
    sink = InMemorySink()
    registry = MetricsRegistry()
    schedule = SampleSchedule(store.num_rows, 32)
    if kind == "top_k":
        result = swope_top_k_entropy(
            store, 1, seed=seed, schedule=schedule, trace=sink, metrics=registry
        )
    else:
        result = swope_filter_entropy(
            store, 1.5, seed=seed, schedule=schedule, trace=sink, metrics=registry
        )
    return result, sink, registry


@settings(max_examples=20, deadline=None)
@given(params=store_params, seed=st.integers(min_value=0, max_value=1000))
def test_iteration_sample_sizes_monotone_non_decreasing(params, seed):
    _, sink, _ = _run_traced(params, seed, "top_k")
    sizes = [e.sample_size for e in sink.of_kind("iteration")]
    assert sizes == sorted(sizes)
    assert all(b > a for a, b in zip(sizes, sizes[1:])), sizes


@settings(max_examples=20, deadline=None)
@given(params=store_params, seed=st.integers(min_value=0, max_value=1000))
def test_interval_widths_non_increasing(params, seed):
    _, sink, _ = _run_traced(params, seed, "top_k")
    iterations = sink.of_kind("iteration")
    widths: dict[str, list[float]] = {}
    for event in iterations:
        for attribute, (lower, upper) in event.bounds.items():
            widths.setdefault(attribute, []).append(upper - lower)
    assert widths
    for attribute, series in widths.items():
        assert all(
            a >= b - WIDTH_SLACK for a, b in zip(series, series[1:])
        ), (attribute, series)


@settings(max_examples=20, deadline=None)
@given(
    params=store_params,
    seed=st.integers(min_value=0, max_value=1000),
    kind=st.sampled_from(["top_k", "filter"]),
)
def test_cells_scanned_total_matches_run_stats(params, seed, kind):
    result, sink, registry = _run_traced(params, seed, kind)
    assert registry.counter("cells_scanned_total").value == float(
        result.stats.cells_scanned
    )
    end = sink.of_kind("query_end")[0]
    assert end.cells_scanned == result.stats.cells_scanned
    assert end.final_sample_size == result.stats.final_sample_size


@settings(max_examples=20, deadline=None)
@given(
    params=store_params,
    seed=st.integers(min_value=0, max_value=1000),
    kind=st.sampled_from(["top_k", "filter"]),
)
def test_trace_event_count_matches_sink(params, seed, kind):
    result, sink, _ = _run_traced(params, seed, kind)
    assert result.stats.trace_event_count == len(sink)
    kinds = sink.kinds()
    assert kinds[0] == "query_start"
    assert kinds[-1] == "query_end"
    assert kinds.count("query_start") == 1
    assert kinds.count("query_end") == 1


@settings(max_examples=10, deadline=None)
@given(
    params=store_params,
    seeds=st.lists(
        st.integers(min_value=0, max_value=1000), min_size=1, max_size=3
    ),
)
def test_latency_histograms_reconcile_with_phase_timings(params, seeds):
    store = _build_store(params)
    registry = MetricsRegistry()
    schedule = SampleSchedule(store.num_rows, 32)
    stats = [
        swope_top_k_entropy(
            store, 1, seed=seed, schedule=schedule, metrics=registry
        ).stats
        for seed in seeds
    ]
    for name, field in [
        ("query_wall_seconds", "wall_seconds"),
        ("query_counting_seconds", "counting_seconds"),
        ("query_bounds_seconds", "bounds_seconds"),
        ("query_loop_seconds", "loop_seconds"),
    ]:
        histogram = registry.histogram(name)
        assert histogram.count == len(seeds)
        assert histogram.sum == pytest.approx(
            sum(getattr(s, field) for s in stats)
        )
    assert registry.counter("iterations_total").value == float(
        sum(s.iterations for s in stats)
    )
