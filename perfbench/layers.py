"""The ``repro`` layers the traced run times, and the metrics they yield.

Each :class:`~perfbench.tracer.Target` names a public function or
method of one ``repro`` module, looked up where its caller looks it up
(``entropy_intervals`` is wrapped in :mod:`repro.core.engine`, whose
providers call it; ``adaptive_top_k`` in :mod:`repro.core.plan`, whose
executor calls it). :func:`layer_metrics` turns the spans and counters
of a traced run into per-operation figures. Every ``*_s`` figure is a
self time, so the ``*_s`` figures plus ``trace.unattributed_s`` add up
to the mean operation wall time.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from pathlib import Path
from typing import Any

from perfbench.tracer import Span, Target, Tracer, self_time_by_name, unattributed


def _rows_in(rows: Any, num_rows: int) -> int:
    if isinstance(rows, slice):
        return len(range(*rows.indices(num_rows)))
    return len(rows)


def _observe_count(tracer: Tracer, args, kwargs, result, before) -> None:
    # count_columns(self, columns, support_sizes, rows)
    columns = args[1] if len(args) > 1 else kwargs["columns"]
    rows = args[3] if len(args) > 3 else kwargs["rows"]
    for column in columns:
        n = _rows_in(rows, len(column))
        tracer.count("backends.cells", n)
        tracer.count("backends.bytes", n * column.dtype.itemsize)


def _observe_intervals(tracer: Tracer, args, kwargs, result, before) -> None:
    tracer.count("bounds.intervals", len(result))


def _observe_loop(tracer: Tracer, args, kwargs, result, before) -> None:
    tracer.count("engine.iterations", result.stats.iterations)


def _observe_lookup(tracer: Tracer, args, kwargs, result, before) -> None:
    if result is not None:
        tracer.count("cache.answers_reused")


def _observe_save(tracer: Tracer, args, kwargs, result, before) -> None:
    tracer.count("checkpoint.bytes", int(result))


def _cache_files(cache) -> dict[str, tuple[int, int, int]]:
    """``name -> (inode, mtime, size)`` of a disk cache's files."""
    if cache.directory is None or not Path(cache.directory).is_dir():
        return {}
    return {
        entry.name: (stat.st_ino, stat.st_mtime_ns, stat.st_size)
        for entry in os.scandir(cache.directory)
        if entry.is_file() and (stat := entry.stat())
    }


def _before_flush(args, kwargs) -> dict[str, tuple[int, int, int]]:
    return _cache_files(args[0])


def _observe_flush(tracer: Tracer, args, kwargs, result, before) -> None:
    # A flush rewrites each dirty partition atomically (a new inode), so
    # a file whose identity changed is a file this flush wrote.
    for name, identity in _cache_files(args[0]).items():
        if before.get(name, (None, None))[:2] != identity[:2]:
            tracer.count("cache.bytes_written", identity[2])


TARGETS: tuple[Target, ...] = (
    # repro.data.sampling
    Target("repro.data.sampling", "PrefixSampler.__init__", "sampling.init"),
    Target("repro.data.sampling", "PrefixSampler.marginal_counts_batch",
           "sampling.marginal"),
    Target("repro.data.sampling", "PrefixSampler.joint_counts_batch",
           "sampling.joint"),
    Target("repro.data.sampling", "PrefixSampler.shuffle_fingerprint",
           "sampling.shuffle_fingerprint"),
    # repro.data.backends (the backend the default path resolves to)
    Target("repro.data.backends", "NumpyBackend.count_columns", "backends.count",
           observe=_observe_count),
    # repro.data.joint
    Target("repro.data.joint", "JointCounter.update", "joint.update"),
    # repro.core.bounds, where repro.core.engine looks them up
    Target("repro.core.engine", "entropy_intervals", "bounds.entropy",
           observe=_observe_intervals),
    Target("repro.core.engine", "mi_intervals", "bounds.mi",
           observe=_observe_intervals),
    # repro.core.engine: providers, and the loops as repro.core.plan calls them
    Target("repro.core.engine", "EntropyScoreProvider.intervals",
           "engine.provider"),
    Target("repro.core.engine", "MutualInformationScoreProvider.intervals",
           "engine.provider"),
    Target("repro.core.plan", "adaptive_top_k", "engine.loop",
           observe=_observe_loop),
    Target("repro.core.plan", "adaptive_filter", "engine.loop",
           observe=_observe_loop),
    # repro.core.plan
    Target("repro.core.plan", "plan_queries", "plan.plan_queries"),
    Target("repro.core.plan", "PlanExecutor.__init__", "plan.executor_init"),
    Target("repro.core.plan", "PlanExecutor.execute", "plan.execute"),
    # repro.cache
    Target("repro.cache.store", "PlanCache.partition", "cache.partition"),
    Target("repro.cache.store", "CachePartition.lookup_answer", "cache.lookup",
           observe=_observe_lookup),
    Target("repro.cache.store", "CachePartition.absorb_sampler_state",
           "cache.absorb"),
    Target("repro.cache.store", "PlanCache.flush", "cache.flush",
           observe=_observe_flush, before=_before_flush),
    # repro.durability.checkpoint
    Target("repro.durability.checkpoint", "encode_sampler_state",
           "checkpoint.encode"),
    Target("repro.durability.checkpoint", "save_checkpoint", "checkpoint.save",
           observe=_observe_save),
    Target("repro.durability.checkpoint", "store_fingerprint",
           "checkpoint.store_fingerprint"),
    # repro.data.mmap_store
    Target("repro.data.mmap_store", "MmapStore.open", "mmap_store.open"),
    Target("repro.data.mmap_store", "MmapStore.column", "mmap_store.column"),
)

#: Per-layer metric -> span name whose summed self time it reports.
SELF_TIME_METRICS: dict[str, str] = {
    "sampling.init_s": "sampling.init",
    "sampling.marginal_self_s": "sampling.marginal",
    "sampling.joint_self_s": "sampling.joint",
    "sampling.shuffle_fingerprint_s": "sampling.shuffle_fingerprint",
    "backends.count_s": "backends.count",
    "joint.update_s": "joint.update",
    "bounds.entropy_s": "bounds.entropy",
    "bounds.mi_s": "bounds.mi",
    "engine.provider_self_s": "engine.provider",
    "engine.loop_self_s": "engine.loop",
    "plan.plan_queries_s": "plan.plan_queries",
    "plan.executor_init_self_s": "plan.executor_init",
    "plan.execute_self_s": "plan.execute",
    "cache.load_s": "cache.partition",
    "cache.lookup_s": "cache.lookup",
    "cache.absorb_s": "cache.absorb",
    "cache.flush_s": "cache.flush",
    "checkpoint.encode_s": "checkpoint.encode",
    "checkpoint.save_s": "checkpoint.save",
    "checkpoint.store_fingerprint_s": "checkpoint.store_fingerprint",
    "mmap_store.open_s": "mmap_store.open",
    "mmap_store.column_s": "mmap_store.column",
}

#: Per-layer metric -> tracer counter it reports (per operation).
COUNT_METRICS: dict[str, str] = {
    "backends.calls": "backends.count.calls",
    "backends.cells": "backends.cells",
    "joint.calls": "joint.update.calls",
    "bounds.intervals": "bounds.intervals",
    "engine.iterations": "engine.iterations",
    "cache.bytes_written": "cache.bytes_written",
    "cache.answers_reused": "cache.answers_reused",
    "checkpoint.saves": "checkpoint.save.calls",
    "checkpoint.bytes": "checkpoint.bytes",
}

UNITS: dict[str, str] = {
    **{name: "s" for name in SELF_TIME_METRICS},
    "sampling.batch_calls": "count",
    "backends.calls": "count",
    "backends.cells": "cells",
    "backends.ns_per_cell": "ns/cell",
    "joint.calls": "count",
    "bounds.calls": "count",
    "bounds.intervals": "count",
    "engine.iterations": "count",
    "cache.bytes_written": "bytes",
    "cache.answers_reused": "count",
    "checkpoint.saves": "count",
    "checkpoint.bytes": "bytes",
    "mmap_store.bytes_read": "bytes-computed",
    "trace.unattributed_s": "s",
    "trace.overhead_pct": "%",
}


def layer_metrics(
    spans: Sequence[Span],
    counters: dict[str, float],
    *,
    operations: int,
    mmap_backed: bool,
    untraced_plan_ms_p50: float,
    traced_plan_ms_p50: float,
) -> dict[str, float]:
    """Per-operation layer figures from one traced run."""
    if operations < 1:
        raise ValueError("a traced run needs at least one operation")
    own = self_time_by_name(spans)
    out: dict[str, float] = {}
    for metric, span in SELF_TIME_METRICS.items():
        out[metric] = own.get(span, 0.0) / operations
    for metric, counter in COUNT_METRICS.items():
        out[metric] = counters.get(counter, 0) / operations
    out["sampling.batch_calls"] = (
        counters.get("sampling.marginal.calls", 0)
        + counters.get("sampling.joint.calls", 0)
    ) / operations
    out["bounds.calls"] = (
        counters.get("bounds.entropy.calls", 0) + counters.get("bounds.mi.calls", 0)
    ) / operations
    cells = counters.get("backends.cells", 0)
    out["backends.ns_per_cell"] = (
        own.get("backends.count", 0.0) / cells * 1e9 if cells else 0.0
    )
    # Computed, not measured: cells counted over the mmap store times the
    # column item size (the page cache serves the reads in this benchmark).
    out["mmap_store.bytes_read"] = (
        counters.get("backends.bytes", 0) / operations if mmap_backed else 0.0
    )
    out["trace.unattributed_s"] = unattributed(spans) / operations
    out["trace.overhead_pct"] = (
        (traced_plan_ms_p50 - untraced_plan_ms_p50) / untraced_plan_ms_p50 * 100.0
    )
    return {name: out[name] for name in UNITS}
