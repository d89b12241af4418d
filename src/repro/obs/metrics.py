"""Process-wide metrics: counters, gauges, and histograms.

Where the trace layer (:mod:`repro.obs.events`) narrates *one* query
deterministically, the metrics layer aggregates *all* queries —
including the wall-clock quantities that are deliberately absent from
trace events. A :class:`MetricsRegistry` owns a set of named
instruments, renders them as Prometheus text exposition
(:meth:`MetricsRegistry.render_prometheus`) or a JSON-ready dict
(:meth:`MetricsRegistry.as_dict`), and is safe to share across threads.

The engine feeds the standard instruments through
:func:`record_query`; pass ``metrics=`` to any SWOPE query (or a
:class:`~repro.core.plan.PlanExecutor`) to populate:

* ``queries_total`` / ``queries_degraded_total`` — counters;
* ``iterations_total``, ``cells_scanned_total``,
  ``candidates_pruned_total`` — counters;
* ``last_final_sample_size`` — gauge;
* ``query_wall_seconds``, ``query_counting_seconds``,
  ``query_bounds_seconds``, ``query_loop_seconds`` — latency
  histograms fed from :class:`~repro.core.engine.PhaseTimings`.

A process-wide default registry is available via
:func:`global_registry` for services that want one scrape target.
"""

from __future__ import annotations

import bisect
import re
import threading
from typing import TYPE_CHECKING, Callable, Union, cast

from repro.exceptions import ParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.plan import PlanStats
    from repro.core.results import GuaranteeStatus, RunStats

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "reset_global_registry",
    "record_cache",
    "record_checkpoint",
    "record_plan",
    "record_query",
    "record_resume",
]

#: Prometheus-style latency buckets (seconds), log-spaced for query work.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _format_number(value: float) -> str:
    """Prometheus-friendly number rendering (integers without ``.0``)."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Counter:
    """Monotonically non-decreasing count. Construct via the registry."""

    metric_type = "counter"

    def __init__(self, name: str, help_text: str, lock: threading.Lock) -> None:
        self.name = name
        self.help_text = help_text
        self._lock = lock
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0: counters only go up)."""
        if amount < 0:
            raise ParameterError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        with self._lock:
            self._value += amount

    def as_dict(self) -> dict[str, object]:
        return {"type": self.metric_type, "help": self.help_text, "value": self._value}

    def render(self) -> list[str]:
        return [f"{self.name} {_format_number(self._value)}"]


class Gauge:
    """A value that can go up and down. Construct via the registry."""

    metric_type = "gauge"

    def __init__(self, name: str, help_text: str, lock: threading.Lock) -> None:
        self.name = name
        self.help_text = help_text
        self._lock = lock
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def as_dict(self) -> dict[str, object]:
        return {"type": self.metric_type, "help": self.help_text, "value": self._value}

    def render(self) -> list[str]:
        return [f"{self.name} {_format_number(self._value)}"]


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are the inclusive upper bounds (``le``); an implicit
    ``+Inf`` bucket always exists. ``sum``/``count`` track the observed
    total and number of observations exactly, so tests can assert e.g.
    that per-phase latency totals reconcile with ``RunStats``.
    """

    metric_type = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        lock: threading.Lock,
        buckets: tuple[float, ...],
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ParameterError(
                f"histogram {name!r} buckets must be a non-empty ascending"
                f" sequence, got {buckets!r}"
            )
        self.name = name
        self.help_text = help_text
        self._lock = lock
        self.buckets = tuple(float(b) for b in buckets)
        self._bucket_counts = [0] * (len(self.buckets) + 1)  # + the +Inf bucket
        self._sum = 0.0
        self._count = 0

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def observe(self, value: float) -> None:
        with self._lock:
            self._bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
            self._sum += value
            self._count += 1

    def cumulative_counts(self) -> list[int]:
        """Counts per ``le`` bucket, cumulative, ``+Inf`` last."""
        out, running = [], 0
        for count in self._bucket_counts:
            running += count
            out.append(running)
        return out

    def as_dict(self) -> dict[str, object]:
        cumulative = self.cumulative_counts()
        labels = [_format_number(b) for b in self.buckets] + ["+Inf"]
        return {
            "type": self.metric_type,
            "help": self.help_text,
            "sum": self._sum,
            "count": self._count,
            "buckets": dict(zip(labels, cumulative)),
        }

    def render(self) -> list[str]:
        lines = []
        cumulative = self.cumulative_counts()
        for bound, count in zip(self.buckets, cumulative):
            lines.append(
                f'{self.name}_bucket{{le="{_format_number(bound)}"}} {count}'
            )
        lines.append(f'{self.name}_bucket{{le="+Inf"}} {cumulative[-1]}')
        lines.append(f"{self.name}_sum {_format_number(self._sum)}")
        lines.append(f"{self.name}_count {self._count}")
        return lines


_Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A named set of instruments with get-or-create semantics.

    ``counter``/``gauge``/``histogram`` return the existing instrument
    when the name is already registered (so callers need no
    first-use/bookkeeping dance) and raise
    :class:`~repro.exceptions.ParameterError` when the name is taken by
    a *different* instrument type.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _register(
        self, name: str, metric_type: str, build: Callable[[], _Metric]
    ) -> _Metric:
        if not _METRIC_NAME.match(name):
            raise ParameterError(f"invalid metric name {name!r}")
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.metric_type != metric_type:
                    raise ParameterError(
                        f"metric {name!r} already registered as"
                        f" {existing.metric_type}, not {metric_type}"
                    )
                return existing
            metric = build()
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        """Get or create the counter called ``name``."""
        return cast(
            Counter,
            self._register(
                name,
                Counter.metric_type,
                lambda: Counter(name, help_text, threading.Lock()),
            ),
        )

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        """Get or create the gauge called ``name``."""
        return cast(
            Gauge,
            self._register(
                name,
                Gauge.metric_type,
                lambda: Gauge(name, help_text, threading.Lock()),
            ),
        )

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        """Get or create the histogram called ``name``."""
        return cast(
            Histogram,
            self._register(
                name,
                Histogram.metric_type,
                lambda: Histogram(name, help_text, threading.Lock(), buckets),
            ),
        )

    def get(self, name: str) -> _Metric:
        """Look up a registered instrument (KeyError-free by contract)."""
        with self._lock:
            if name not in self._metrics:
                raise ParameterError(f"no metric registered under {name!r}")
            return self._metrics[name]

    def names(self) -> list[str]:
        """Registered metric names, sorted."""
        with self._lock:
            return sorted(self._metrics)

    def as_dict(self) -> dict[str, dict[str, object]]:
        """JSON-ready dump: ``{name: {type, help, ...state}}``, sorted."""
        with self._lock:
            items = sorted(self._metrics.items())
        return {name: metric.as_dict() for name, metric in items}

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        with self._lock:
            items = sorted(self._metrics.items())
        for name, metric in items:
            if metric.help_text:
                lines.append(f"# HELP {name} {metric.help_text}")
            lines.append(f"# TYPE {name} {metric.metric_type}")
            lines.extend(metric.render())
        return "\n".join(lines) + "\n" if lines else ""


_GLOBAL_LOCK = threading.Lock()
_GLOBAL_REGISTRY: MetricsRegistry | None = None


def global_registry() -> MetricsRegistry:
    """The process-wide default registry (created on first use)."""
    global _GLOBAL_REGISTRY
    with _GLOBAL_LOCK:
        if _GLOBAL_REGISTRY is None:
            _GLOBAL_REGISTRY = MetricsRegistry()
        return _GLOBAL_REGISTRY


def reset_global_registry() -> None:
    """Discard the process-wide registry (test isolation hook)."""
    global _GLOBAL_REGISTRY
    with _GLOBAL_LOCK:
        _GLOBAL_REGISTRY = None


def record_query(
    registry: MetricsRegistry,
    *,
    kind: str,
    score: str,
    stats: "RunStats",
    guarantee: "GuaranteeStatus",
) -> None:
    """Feed one finished query's accounting into the standard instruments.

    Called by the adaptive loops after the run's
    :class:`~repro.core.results.RunStats` and
    :class:`~repro.core.results.GuaranteeStatus` are final — including
    degraded/cancelled runs (strict mode records before raising), so a
    dashboard sees every query the engine answered or attempted.
    """
    registry.counter(
        "queries_total", "Adaptive SWOPE queries executed"
    ).inc()
    registry.counter(
        f"queries_{kind}_total", f"Queries using the {kind} stopping rule"
    ).inc()
    registry.counter(
        f"queries_{score}_total", f"Queries scoring {score}"
    ).inc()
    if not guarantee.guarantee_met:
        registry.counter(
            "queries_degraded_total",
            "Queries truncated by a budget or cancellation",
        ).inc()
    registry.counter(
        "iterations_total", "Adaptive iterations executed"
    ).inc(stats.iterations)
    registry.counter(
        "cells_scanned_total", "Attribute cells read from stores"
    ).inc(stats.cells_scanned)
    # Sole feeder of the saved-cells counter: served answers also pass
    # through record_query, so adding it in record_cache too would
    # double-count (stats.cells_saved is per-query by contract).
    registry.counter(
        "cache_cells_saved_total",
        "Attribute cells the plan cache avoided reading",
    ).inc(stats.cells_saved)
    registry.counter(
        "candidates_pruned_total", "Candidates retired by top-k pruning"
    ).inc(stats.candidates_pruned)
    registry.gauge(
        "last_final_sample_size", "Final sample size M of the latest query"
    ).set(stats.final_sample_size)
    registry.histogram(
        "query_wall_seconds", "End-to-end query latency"
    ).observe(stats.wall_seconds)
    registry.histogram(
        "query_counting_seconds", "Per-query counting-phase time"
    ).observe(stats.counting_seconds)
    registry.histogram(
        "query_bounds_seconds", "Per-query bounds-phase time"
    ).observe(stats.bounds_seconds)
    registry.histogram(
        "query_loop_seconds", "Per-query loop overhead outside counting/bounds"
    ).observe(stats.loop_seconds)


def record_plan(registry: MetricsRegistry, *, stats: "PlanStats") -> None:
    """Feed one executed plan's accounting into the standard instruments.

    Called by :meth:`repro.core.plan.PlanExecutor.execute` after the
    plan's :class:`~repro.core.plan.PlanStats` are final — including
    plans truncated in strict mode, so dashboards see every batch the
    executor attempted. The per-query instruments are still fed by
    :func:`record_query` for each retired query; these plan-level
    instruments add the batch view (shared-scan cost, batch latency).
    """
    registry.counter(
        "plans_total", "Query plans executed"
    ).inc()
    registry.counter(
        "plan_queries_total", "Queries retired by plan execution"
    ).inc(stats.queries_completed)
    registry.counter(
        "plan_cells_scanned_total", "Attribute cells read during plan execution"
    ).inc(stats.cells_scanned)
    registry.histogram(
        "plan_wall_seconds", "End-to-end plan latency"
    ).observe(stats.wall_seconds)


def record_cache(
    registry: MetricsRegistry, *, hit: bool, mode: str | None = None
) -> None:
    """Feed one plan-cache answer lookup into the standard instruments.

    Called once per consulted query: ``hit=False`` for a miss (including
    semantic-replay refusals), ``hit=True`` with ``mode`` ``"exact"`` or
    ``"semantic"`` for a serve. Saved-cell accounting deliberately lives
    in :func:`record_query` (see the comment there), keeping
    ``cache_cells_saved_total`` reconcilable against summed
    :class:`~repro.core.results.RunStats`.
    """
    registry.counter(
        "cache_lookups_total", "Plan-cache answer lookups"
    ).inc()
    if hit:
        registry.counter(
            "cache_hits_total", "Queries answered from the plan cache"
        ).inc()
        if mode == "semantic":
            registry.counter(
                "cache_answers_reused_total",
                "Cache hits served by semantic (dominance) reuse",
            ).inc()
    else:
        registry.counter(
            "cache_misses_total", "Plan-cache lookups that ran fresh"
        ).inc()


def record_checkpoint(
    registry: MetricsRegistry, *, payload_bytes: int, seconds: float
) -> None:
    """Feed one durable checkpoint save into the standard instruments.

    Called by :class:`repro.core.plan.PlanExecutor` after each
    successful atomic checkpoint write. Size and latency live here, not
    in the (deterministic) ``checkpoint_saved`` trace event.
    """
    registry.counter(
        "checkpoints_saved_total", "Plan checkpoints durably written"
    ).inc()
    registry.gauge(
        "checkpoint_payload_bytes", "Size of the latest checkpoint file"
    ).set(payload_bytes)
    registry.histogram(
        "checkpoint_save_seconds", "Checkpoint serialization + atomic write latency"
    ).observe(seconds)


def record_resume(registry: MetricsRegistry, *, queries_completed: int) -> None:
    """Feed one checkpoint-resumed plan run into the standard instruments."""
    registry.counter(
        "plan_resumes_total", "Plan runs restarted from a checkpoint"
    ).inc()
    registry.counter(
        "plan_resume_queries_restored_total",
        "Already-retired queries restored from checkpoints",
    ).inc(queries_completed)
