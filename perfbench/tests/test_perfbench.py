"""Tests for the benchmark's own code: span arithmetic, wrapping, a smoke run.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import layers, run  # noqa: E402
from perfbench.tracer import (  # noqa: E402
    OPERATION_SPAN,
    Span,
    Target,
    Tracer,
    TracerError,
    chrome_trace,
    self_time_by_name,
    self_times,
    unattributed,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Self time and unattributed time on a synthetic span tree
# ----------------------------------------------------------------------
def _tree() -> list[Span]:
    # op [0, 10]: a [1, 6] (b [2, 4], c [4.5, 5]), d [7, 9]
    return [
        Span(1, "b", 2.0, 4.0, 2, 0),
        Span(3, "c", 4.5, 5.0, 2, 0),
        Span(2, "a", 1.0, 6.0, 0, 0),
        Span(4, "d", 7.0, 9.0, 0, 0),
        Span(0, OPERATION_SPAN, 0.0, 10.0, None, 0),
    ]


def test_self_time_subtracts_direct_children_only():
    own = self_times(_tree())
    assert own == {0: 3.0, 1: 2.0, 2: 2.5, 3: 0.5, 4: 2.0}


def test_self_times_plus_unattributed_equal_operation_wall_time():
    spans = _tree()
    by_name = self_time_by_name(spans)
    layer_total = sum(v for k, v in by_name.items() if k != OPERATION_SPAN)
    assert unattributed(spans) == 3.0
    assert layer_total + unattributed(spans) == pytest.approx(10.0)


def test_self_time_by_name_sums_spans_of_one_name():
    spans = _tree() + [Span(5, "d", 9.0, 9.5, 0, 0)]
    assert self_time_by_name(spans)["d"] == pytest.approx(2.5)


def test_chrome_trace_events_carry_name_times_parent_and_operation():
    events = chrome_trace(_tree(), {"workload": "x"})["traceEvents"]
    by_name = {e["name"]: e for e in events}
    assert by_name["b"]["ph"] == "X"
    assert by_name["b"]["ts"] == pytest.approx(2e6)
    assert by_name["b"]["dur"] == pytest.approx(2e6)
    assert by_name["b"]["args"] == {"span_id": 1, "parent": 2, "operation": 0}


# ----------------------------------------------------------------------
# Wrap and unwrap
# ----------------------------------------------------------------------
@pytest.fixture
def fake_module():
    module = types.ModuleType("perfbench_fake_target")

    def outer(x):
        return Widget().method(x) + Widget.build(x) + Widget.pure(x)

    class Widget:
        def method(self, x):
            return x + 1

        @classmethod
        def build(cls, x):
            return 2 * x

        @staticmethod
        def pure(x):
            return 3 * x

    module.outer = outer
    module.Widget = Widget
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def _fake_targets(name: str) -> list[Target]:
    return [
        Target(name, "outer", "fake.outer"),
        Target(name, "Widget.method", "fake.method"),
        Target(name, "Widget.build", "fake.build"),
        Target(name, "Widget.pure", "fake.pure"),
    ]


def test_wrap_records_nested_spans_and_unwrap_restores_originals(fake_module):
    originals = {
        "outer": vars(fake_module)["outer"],
        "method": vars(fake_module.Widget)["method"],
        "build": vars(fake_module.Widget)["build"],
        "pure": vars(fake_module.Widget)["pure"],
    }
    tracer = Tracer(_fake_targets(fake_module.__name__))
    tracer.install()
    try:
        assert fake_module.outer(1) == 2 + 2 + 3  # outside an operation
        assert tracer.spans == []
        tracer.begin_operation(7)
        assert fake_module.outer(1) == 7
        tracer.end_operation()
    finally:
        tracer.uninstall()
    assert vars(fake_module)["outer"] is originals["outer"]
    for name in ("method", "build", "pure"):
        assert vars(fake_module.Widget)[name] is originals[name]
    spans = {s.name: s for s in tracer.spans}
    root = spans[OPERATION_SPAN]
    assert spans["fake.outer"].parent == root.span_id
    for name in ("fake.method", "fake.build", "fake.pure"):
        assert spans[name].parent == spans["fake.outer"].span_id
        assert spans[name].operation == 7
    assert tracer.counters["fake.outer.calls"] == 1


def test_unwrap_of_every_library_target_restores_the_same_objects():
    run.import_repro(ROOT / "src")
    tracer = Tracer(layers.TARGETS)
    before = [(owner, name, raw) for _, owner, name, raw in tracer._resolved]
    tracer.install()
    assert all(vars(owner)[name] is not raw for owner, name, raw in before)
    tracer.uninstall()
    assert all(vars(owner)[name] is raw for owner, name, raw in before)


def test_missing_target_fails_loudly_by_name(fake_module):
    with pytest.raises(TracerError, match="Widget.renamed"):
        Tracer([Target(fake_module.__name__, "Widget.renamed", "x")])
    with pytest.raises(TracerError, match="no_such_module"):
        Tracer([Target("no_such_module", "f", "x")])


def test_unwrap_detects_a_replaced_wrapper(fake_module):
    tracer = Tracer(_fake_targets(fake_module.__name__))
    tracer.install()
    fake_module.outer = lambda x: x
    with pytest.raises(TracerError, match="outer"):
        tracer.uninstall()


# ----------------------------------------------------------------------
# The metric names the runner emits are the ones BENCHMARK.json declares
# ----------------------------------------------------------------------
def test_declared_metrics_match_emitted_metrics():
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared_e2e == run.END_TO_END_UNITS
    assert declared_layers == layers.UNITS
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)


# ----------------------------------------------------------------------
# Tiny-scale smoke run of every workload
# ----------------------------------------------------------------------
#: Layers that must show work on a workload, beyond the ones every plan uses.
EXPECTED_ACTIVE = {
    "census": [],
    "wide_mixed": ["joint.update_s", "bounds.mi_s"],
    "durable": ["checkpoint.saves", "checkpoint.bytes", "cache.bytes_written",
                "cache.answers_reused", "checkpoint.store_fingerprint_s",
                "sampling.shuffle_fingerprint_s", "cache.load_s"],
    "ooc_mmap": ["mmap_store.open_s", "mmap_store.bytes_read", "joint.calls"],
}


@pytest.mark.parametrize("workload", sorted(EXPECTED_ACTIVE))
def test_smoke_run_reports_every_metric_without_errors(workload, tmp_path):
    repro = run.import_repro(ROOT / "src")
    args = argparse.Namespace(workload=workload, seed=3, seconds=0.5, trace=1,
                              out=str(tmp_path))
    record = run.run_benchmark(repro, args, scale=0.02)
    assert record["error_rate"] == 0, record["failures"]
    for trace in (False, True):
        line = run.result_line(record, trace)
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        declared = BENCHMARK["per_layer" if trace else "end_to_end"]
        assert set(line["metrics"]) == {m["name"] for m in declared}
    for name in run.END_TO_END_UNITS:
        assert record["end_to_end"][name] > 0, name
    per_layer = record["per_layer"]
    for name in ["sampling.init_s", "backends.calls", "backends.ns_per_cell",
                 "bounds.calls", "engine.iterations", "plan.execute_self_s",
                 *EXPECTED_ACTIVE[workload]]:
        assert per_layer[name] > 0, name
    assert abs(record["detail"]["closure_error_s"]) < 1e-6
    trace_file = tmp_path / record["detail"]["chrome_trace"]
    assert json.loads(trace_file.read_text())["traceEvents"]
    assert not [p for p in tmp_path.iterdir() if p.is_dir()]  # scratch removed


def test_cells_repeat_exactly_for_a_seed(tmp_path):
    repro = run.import_repro(ROOT / "src")
    cells = []
    for _ in range(2):
        args = argparse.Namespace(workload="census", seed=5, seconds=0.2,
                                  trace=0, out=str(tmp_path))
        record = run.run_benchmark(repro, args, scale=0.02)
        cells.append(record["end_to_end"]["cells_per_plan"])
    assert cells[0] == cells[1]


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "census",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
