"""Unit tests for the observability subsystem (:mod:`repro.obs`)."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.budget import QueryBudget
from repro.core.plan import PlanExecutor
from repro.core.schedule import SampleSchedule
from repro.core.swope import (
    swope_filter_entropy,
    swope_top_k_entropy,
)
from repro.data.column_store import ColumnStore
from repro.exceptions import (
    ParameterError,
    QueryInterruptedError,
    UnknownAttributeError,
)
from repro.obs import (
    TRACE_SCHEMA_VERSION,
    InMemorySink,
    IterationEvent,
    JsonlSink,
    MetricsRegistry,
    NullSink,
    PruneEvent,
    QueryEndEvent,
    QueryStartEvent,
    TraceSink,
    global_registry,
    header_record,
    reset_global_registry,
    serialize_event,
)


@pytest.fixture
def store(rng: np.random.Generator) -> ColumnStore:
    n = 3000
    return ColumnStore(
        {
            "wide": rng.integers(0, 128, n),
            "medium": rng.integers(0, 16, n),
            "narrow": rng.integers(0, 3, n),
            "flat": np.zeros(n, dtype=np.int64),
        }
    )


class TestEvents:
    def test_header_record(self):
        assert header_record() == {
            "event": "header",
            "schema_version": TRACE_SCHEMA_VERSION,
        }

    def test_as_dict_includes_discriminator_and_lists_tuples(self):
        event = PruneEvent(sample_size=64, pruned=("a", "b"), survivors=3)
        assert event.as_dict() == {
            "event": "prune",
            "sample_size": 64,
            "pruned": ["a", "b"],
            "survivors": 3,
        }

    def test_iteration_event_renders_bounds_as_lists(self):
        event = IterationEvent(
            index=0,
            sample_size=16,
            candidates=("a",),
            bounds={"a": (0.5, 1.5)},
        )
        assert event.as_dict()["bounds"] == {"a": [0.5, 1.5]}

    def test_serialize_event_is_canonical(self):
        # Key order of the input dict must not leak into the rendering.
        assert serialize_event({"b": 1, "a": 2}) == '{"a":2,"b":1}'
        event = QueryEndEvent(
            stopping_reason="converged",
            guarantee_met=True,
            requested_epsilon=0.1,
            achieved_epsilon=0.05,
            iterations=3,
            final_sample_size=128,
            cells_scanned=999,
            answer=("x",),
        )
        line = serialize_event(event)
        assert json.loads(line) == event.as_dict()
        assert ", " not in line  # minimal separators


class TestSinks:
    def test_null_sink_is_disabled(self):
        assert NullSink.enabled is False
        assert isinstance(NullSink(), TraceSink)

    def test_in_memory_sink_collects_in_order(self):
        sink = InMemorySink()
        sink.emit(PruneEvent(sample_size=1, pruned=("a",), survivors=1))
        sink.emit(QueryEndEvent("converged", True, 0.1, 0.1, 1, 1, 1, ()))
        assert len(sink) == 2
        assert sink.kinds() == ["prune", "query_end"]
        assert [type(e).event for e in sink] == sink.kinds()
        assert len(sink.of_kind("prune")) == 1
        assert sink.of_kind("iteration") == []

    def test_in_memory_sink_widths_over_iteration_events(self):
        sink = InMemorySink()
        sink.emit(IterationEvent(0, 8, ("a", "b"), {"a": (1.0, 3.0), "b": (0.0, 0.5)}))
        sink.emit(PruneEvent(sample_size=8, pruned=("b",), survivors=1))
        sink.emit(IterationEvent(1, 16, ("a",), {"a": (1.5, 2.5)}))
        assert sink.widths("a") == [(8, 2.0), (16, 1.0)]
        assert sink.widths("b") == [(8, 0.5)]
        with pytest.raises(UnknownAttributeError, match="ghost"):
            sink.widths("ghost")

    def test_jsonl_sink_owns_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(PruneEvent(sample_size=2, pruned=("a",), survivors=0))
            assert sink.event_count == 1
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == header_record()
        assert json.loads(lines[1])["event"] == "prune"

    def test_jsonl_sink_borrows_file_object(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink.close()
        assert not buffer.closed  # borrowed, never closed
        assert json.loads(buffer.getvalue()) == header_record()


class TestMetricsRegistry:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        c = reg.counter("hits", "help")
        c.inc()
        c.inc(2.0)
        assert reg.counter("hits") is c
        assert c.value == 3.0

    def test_counter_rejects_negative_increment(self):
        with pytest.raises(ParameterError, match="cannot decrease"):
            MetricsRegistry().counter("c").inc(-1)

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ParameterError, match="already registered"):
            reg.gauge("x")

    def test_invalid_name_raises(self):
        with pytest.raises(ParameterError, match="invalid metric name"):
            MetricsRegistry().counter("bad name!")

    def test_gauge_set_and_inc(self):
        g = MetricsRegistry().gauge("g")
        g.set(5)
        g.inc(-2)
        assert g.value == 3.0

    def test_histogram_buckets_are_inclusive_upper_bounds(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 99.0):
            h.observe(value)
        assert h.cumulative_counts() == [2, 3, 4]  # le=1, le=2, +Inf
        assert h.sum == pytest.approx(102.0)
        assert h.count == 4

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ParameterError, match="ascending"):
            MetricsRegistry().histogram("h", buckets=(2.0, 1.0))

    def test_get_and_names(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert reg.names() == ["a", "b"]
        assert reg.get("a").metric_type == "gauge"
        with pytest.raises(ParameterError, match="no metric"):
            reg.get("missing")

    def test_render_prometheus(self):
        reg = MetricsRegistry()
        reg.counter("requests_total", "Requests served").inc(7)
        reg.histogram("lat", buckets=(0.5,)).observe(0.1)
        text = reg.render_prometheus()
        assert "# HELP requests_total Requests served" in text
        assert "# TYPE requests_total counter" in text
        assert "requests_total 7" in text
        assert 'lat_bucket{le="0.5"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text

    def test_as_dict_round_trips_through_json(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        dumped = json.loads(json.dumps(reg.as_dict()))
        assert dumped["c"]["value"] == 1.0
        assert dumped["h"]["buckets"] == {"1": 1, "+Inf": 1}

    def test_global_registry_is_a_singleton_until_reset(self):
        reset_global_registry()
        first = global_registry()
        assert global_registry() is first
        reset_global_registry()
        assert global_registry() is not first


class TestEngineEmission:
    def test_event_stream_shape(self, store):
        sink = InMemorySink()
        result = swope_top_k_entropy(
            store, 2, seed=3,
            schedule=SampleSchedule(store.num_rows, 64), trace=sink,
        )
        kinds = sink.kinds()
        assert kinds[0] == "query_start"
        assert kinds[-1] == "query_end"
        start = sink.of_kind("query_start")[0]
        assert isinstance(start, QueryStartEvent)
        assert start.kind == "top_k"
        assert start.score == "entropy"
        assert start.k == 2
        iterations = sink.of_kind("iteration")
        sizes = [e.sample_size for e in iterations]
        assert sizes == sorted(sizes)
        end = sink.of_kind("query_end")[0]
        assert end.answer == tuple(result.attributes)
        assert end.iterations == result.stats.iterations
        assert end.cells_scanned == result.stats.cells_scanned
        assert result.stats.trace_event_count == len(sink)

    def test_prune_event(self, store):
        sink = InMemorySink()
        swope_top_k_entropy(
            store, 1, seed=3, prune=True,
            schedule=SampleSchedule(store.num_rows, 64), trace=sink,
        )
        prunes = sink.of_kind("prune")
        assert prunes, "separated entropies should let pruning fire"
        for event in prunes:
            assert event.pruned
            assert event.survivors >= 1

    def test_filter_decided_events_cover_all_attributes(self, store):
        sink = InMemorySink()
        result = swope_filter_entropy(
            store, 2.5, seed=3,
            schedule=SampleSchedule(store.num_rows, 64), trace=sink,
        )
        assert result.guarantee is not None and result.guarantee.guarantee_met
        decided = [a for e in sink.of_kind("iteration") for a in e.decided]
        assert sorted(decided) == sorted(store.attributes)
        assert sink.of_kind("iteration")[-1].stopped

    def test_degraded_run_emits_budget_degradation(self, store):
        sink = InMemorySink()
        registry = MetricsRegistry()
        result = swope_top_k_entropy(
            store, 2, seed=3, budget=QueryBudget(max_sample_size=64),
            schedule=SampleSchedule(store.num_rows, 64),
            trace=sink, metrics=registry,
        )
        assert result.guarantee is not None
        assert not result.guarantee.guarantee_met
        degradations = sink.of_kind("budget_degradation")
        assert [e.reason for e in degradations] == ["sample_cap"]
        end = sink.of_kind("query_end")[0]
        assert end.stopping_reason == "sample_cap"
        assert registry.counter("queries_degraded_total").value == 1.0

    def test_strict_run_still_reaches_sink_and_metrics(self, store):
        sink = InMemorySink()
        registry = MetricsRegistry()
        with pytest.raises(QueryInterruptedError):
            swope_top_k_entropy(
                store, 2, seed=3, strict=True,
                budget=QueryBudget(max_sample_size=64),
                schedule=SampleSchedule(store.num_rows, 64),
                trace=sink, metrics=registry,
            )
        assert sink.kinds()[-1] == "query_end"
        assert registry.counter("queries_total").value == 1.0
        assert registry.counter("queries_degraded_total").value == 1.0

    def test_disabled_sink_emits_nothing(self, store):
        sink = NullSink()
        result = swope_top_k_entropy(store, 2, seed=3, trace=sink)
        baseline = swope_top_k_entropy(store, 2, seed=3)
        assert result.stats.trace_event_count == 0
        assert result.attributes == baseline.attributes

    def test_metrics_without_trace(self, store):
        registry = MetricsRegistry()
        result = swope_top_k_entropy(store, 2, seed=3, metrics=registry)
        assert registry.counter("cells_scanned_total").value == float(
            result.stats.cells_scanned
        )
        assert registry.histogram("query_wall_seconds").count == 1


class TestSessionWiring:
    def test_session_default_sink_and_registry(self, store):
        sink = InMemorySink()
        registry = MetricsRegistry()
        executor = PlanExecutor(store, seed=5, trace=sink, metrics=registry)
        assert executor.default_trace is sink
        assert executor.default_metrics is registry
        executor.top_k_entropy(1)
        executor.filter_entropy(2.5)
        assert registry.counter("queries_total").value == 2.0
        assert sink.kinds().count("query_start") == 2
        assert sink.kinds().count("query_end") == 2

    def test_per_query_override_silences_one_query(self, store):
        sink = InMemorySink()
        executor = PlanExecutor(store, seed=5, trace=sink)
        executor.top_k_entropy(1, trace=None)
        assert len(sink) == 0
        executor.top_k_entropy(1)
        assert sink.kinds().count("query_start") == 1


class TestCli:
    def test_query_trace_and_metrics_flags(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "query", "topk-entropy", "--dataset", "cdc", "--scale", "0.02",
            "-k", "2", "--seed", "5",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
            "--emit-metrics",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"wrote {trace_path}" in out
        assert f"wrote {metrics_path}" in out
        assert "metrics: queries_total=1" in out
        lines = trace_path.read_text().splitlines()
        assert json.loads(lines[0]) == header_record()
        assert json.loads(lines[-1])["event"] == "query_end"
        dumped = json.loads(metrics_path.read_text())
        assert dumped["queries_total"]["value"] == 1.0

    def test_metrics_out_prom_renders_prometheus_text(self, tmp_path):
        metrics_path = tmp_path / "metrics.prom"
        code = main([
            "query", "filter-entropy", "--dataset", "cdc", "--scale", "0.02",
            "--eta", "2.0", "--seed", "5", "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        text = metrics_path.read_text()
        assert "# TYPE queries_total counter" in text
        assert "queries_total 1" in text

    def test_strict_failure_still_writes_trace_and_metrics(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "query", "topk-entropy", "--dataset", "cdc", "--scale", "0.02",
            "--seed", "5", "--max-sample", "32", "--strict",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        ])
        assert code == 2
        events = [json.loads(l)["event"] for l in trace_path.read_text().splitlines()]
        assert "budget_degradation" in events
        assert events[-1] == "query_end"
        dumped = json.loads(metrics_path.read_text())
        assert dumped["queries_degraded_total"]["value"] == 1.0
