"""Versioned, fingerprint-keyed checkpoints of plan-executor progress.

A :class:`~repro.core.plan.PlanExecutor` run is deterministic at a fixed
seed: the sample is a prefix of one row order, counters only grow, and
every trace event is derived from counter state — so a snapshot of
(row order, counters, retired answers, loop position) is enough to restart
a killed plan and produce *bit-identical* final answers. The row order
is recorded as the store's sampling layout (its seed and sha256) and the
run's offset into it, never as ``N`` indices; the restore checks the
store's layout against the recorded sha256 (a store or numpy that lays
the rows out differently is refused). This module owns that snapshot's
on-disk form:

* a single JSON document (``{"format", "schema_version", "sha256",
  "payload"}``) written through
  :func:`repro.durability.atomic.atomic_write_text`, so a crash during a
  save leaves the previous checkpoint intact — the same envelope
  (:func:`write_envelope`/:func:`read_envelope`) and counter codec
  (:func:`encode_counters`/:func:`decode_counters`) seal the plan
  cache's partition files (:mod:`repro.cache.store`);
* arrays — the counters — stored as the base64 of their raw
  little-endian bytes in the narrowest width that holds their largest
  value (``|u1``, ``<u2``, ``<u4``, else ``<i8``), with dtype and
  shape, and decoded to int64 with the saved values; a dense joint
  table is stored as its nonzero cells (indices and counts) when that
  takes fewer bytes. A checkpoint's size therefore tracks the counters,
  never the row count;
* a sha256 over the canonical payload serialization, verified on load —
  a truncated or hand-edited file raises
  :class:`~repro.exceptions.CheckpointError` instead of resuming from
  garbage;
* a schema version and a dataset fingerprint (sha256 over row count,
  attribute names, support sizes, and raw column bytes); loading against
  a different code version or a different dataset raises
  :class:`~repro.exceptions.CheckpointMismatchError` — the counters of a
  snapshot describe exactly one dataset, so "best effort" loading would
  silently produce wrong answers.

The version policy (see ``docs/RESILIENCE.md``): any change to the
payload layout, to what the executor snapshots, or to the engine's
iteration-boundary semantics bumps :data:`CHECKPOINT_SCHEMA_VERSION`.
Old checkpoints are then refused, never migrated — a checkpoint is a
crash-recovery artifact with the lifetime of one plan run, not an
archive format.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Union

import numpy as np

from repro.core.budget import QueryBudget
from repro.core.engine import LoopCheckpoint
from repro.core.plan import QueryPlan, QuerySpec, _PlanProgress
from repro.core.results import (
    AttributeEstimate,
    FilterResult,
    GuaranteeStatus,
    RunStats,
    TopKResult,
)
from repro.data.column_store import ColumnSource
from repro.data.joint import DENSE_LIMIT
from repro.durability.atomic import atomic_write_text
from repro.exceptions import CheckpointError, CheckpointMismatchError

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_SCHEMA_VERSION",
    "PlanCheckpoint",
    "decode_counters",
    "decode_sampler_state",
    "encode_counters",
    "encode_sampler_state",
    "load_checkpoint",
    "loop_state_from_payload",
    "loop_state_to_payload",
    "progress_from_payload",
    "progress_to_payload",
    "read_envelope",
    "result_from_payload",
    "result_to_payload",
    "save_checkpoint",
    "store_fingerprint",
    "write_envelope",
]

#: Discriminator in the envelope; a file without it is not a checkpoint.
CHECKPOINT_FORMAT = "repro-plan-checkpoint"

#: Bumped on any change to the payload layout or resume semantics;
#: mismatching files are refused, never migrated.
#: v2: planner-v2 fields — sampler state and run stats carry
#: ``cells_saved`` (plan-cache accounting) and plan progress carries the
#: scheduled plan's metadata (count groups, order, cost estimates).
#: v3: the sampler records its shuffle as ``shuffle`` (bit generator,
#: generator state, permutation sha256) instead of the ``permutation``
#: array, and drops the redundant ``sequential`` flag.
#: v4: samplers read the store's sampling layout from a run offset, and
#: ``shuffle`` is ``{"layout_seed", "layout", "offset"}`` (the layout's
#: seed and sha256, and the offset).
#: v5: counter arrays are raw little-endian integers in their narrowest
#: width instead of zlib streams, a dense joint table may be stored as
#: its nonzero cells, and ``executor`` drops ``checkpoint_every``.
CHECKPOINT_SCHEMA_VERSION = 5

_PAYLOAD_KEYS = ("dataset", "executor", "sampler", "specs", "progress")


# ----------------------------------------------------------------------
# Dataset fingerprint
# ----------------------------------------------------------------------
def store_fingerprint(store: ColumnSource) -> str:
    """sha256 identity of a dataset: rows, names, supports, column bytes.

    Two stores with the same fingerprint produce identical counters for
    every prefix, which is exactly the property resuming needs. The
    fingerprint deliberately covers the *encoded* columns — re-encoding
    the same raw data differently changes every counter, so it must
    change the fingerprint too.

    Delegates to :meth:`~repro.data.column_store.ColumnSource.fingerprint`,
    so every storage engine hashes itself the way that suits it — the
    in-memory store over its resident arrays, the mmap store by
    returning its manifest's build-time value — while all engines agree
    byte-for-byte on the same encoded data. A checkpoint written against
    one engine therefore verifies against the other.
    """
    return store.fingerprint()


# ----------------------------------------------------------------------
# Array and counter-state codecs
# ----------------------------------------------------------------------
#: The widths a counter array is stored in, narrowest first: unsigned
#: widths for the largest value they hold, ``<i8`` for anything else.
_UNSIGNED_WIDTHS = ((0xFF, "|u1"), (0xFFFF, "<u2"), (0xFFFF_FFFF, "<u4"))
_STORED_DTYPES = {
    name: np.dtype(name) for name in ("|u1", "<u2", "<u4", "<i8")
}


def _narrowest(low: int, high: int) -> str:
    """The narrowest stored dtype holding every value in ``[low, high]``."""
    if low >= 0:
        for limit, name in _UNSIGNED_WIDTHS:
            if high <= limit:
                return name
    return "<i8"


def _value_range(arr: np.ndarray) -> tuple[int, int]:
    return (int(arr.min()), int(arr.max())) if arr.size else (0, 0)


def _encode_array(arr: np.ndarray, dtype: str | None = None) -> dict[str, Any]:
    """``arr``'s raw little-endian bytes, base64, in its narrowest width."""
    data = np.asarray(arr)
    if dtype is None:
        dtype = _narrowest(*_value_range(data))
    return {
        "dtype": dtype,
        "shape": list(data.shape),
        "data": base64.b64encode(data.astype(dtype, copy=False).tobytes()).decode(
            "ascii"
        ),
    }


def _decode_array(payload: Any) -> np.ndarray:
    """The writable int64 array :func:`_encode_array` stored."""
    try:
        dtype = _STORED_DTYPES[payload["dtype"]]
        shape = payload["shape"]
        raw = base64.b64decode(payload["data"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt array payload in checkpoint: {exc}") from exc
    if not (
        isinstance(shape, list)
        and all(type(d) is int and d >= 0 for d in shape)
        and len(raw) == math.prod(shape) * dtype.itemsize
    ):
        raise CheckpointError(
            "corrupt array payload in checkpoint:"
            f" {len(raw)} data bytes for shape {shape!r} of {dtype.str}"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape).astype(np.int64)


def _encode_table(table: np.ndarray) -> dict[str, Any]:
    """A dense joint table, whole or as its nonzero cells, whichever is smaller.

    Both forms store narrowed integers (:func:`_encode_array`), so the
    choice compares exact byte counts: ``size`` cells at the counts'
    width against ``nonzero`` cell indices at the indices' width plus
    ``nonzero`` counts at the counts' width.
    """
    low, high = _value_range(table)
    counts = _narrowest(low, high)
    cells = _narrowest(0, table.size - 1)
    nonzero = int(np.count_nonzero(table))
    whole = table.size * _STORED_DTYPES[counts].itemsize
    sparse = nonzero * (
        _STORED_DTYPES[cells].itemsize + _STORED_DTYPES[counts].itemsize
    )
    if low < 0 or table.size > DENSE_LIMIT or sparse >= whole:
        return {"dense": _encode_array(table, counts)}
    index = np.flatnonzero(table)
    return {
        "nonzero_cells": _encode_array(index, cells),
        "nonzero_counts": _encode_array(table[index], counts),
    }


def _decode_table(payload: Mapping[str, Any], size: int) -> np.ndarray:
    """The dense table of ``size`` cells :func:`_encode_table` stored."""
    if "dense" in payload:
        table = _decode_array(payload["dense"])
        if table.shape != (size,):
            raise CheckpointError(
                f"dense joint table has shape {table.shape}, not ({size},)"
            )
        return table
    cells = _decode_array(payload["nonzero_cells"])
    counts = _decode_array(payload["nonzero_counts"])
    if not 0 < size <= DENSE_LIMIT:
        raise CheckpointError(f"a joint table of {size} cells is not dense")
    if cells.ndim != 1 or cells.shape != counts.shape:
        raise CheckpointError(
            f"nonzero cells {cells.shape} and counts {counts.shape} differ"
        )
    if cells.size and (
        cells[0] < 0 or cells[-1] >= size or np.any(np.diff(cells) <= 0)
    ):
        raise CheckpointError(
            f"nonzero cells are not strictly increasing within [0, {size})"
        )
    if np.any(counts <= 0):
        raise CheckpointError("a nonzero cell has a count below 1")
    table = np.zeros(size, dtype=np.int64)
    table[cells] = counts
    return table


def _encode_joint(snapshot: dict[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {
        "support_first": int(snapshot["support_first"]),
        "support_second": int(snapshot["support_second"]),
        "total": int(snapshot["total"]),
    }
    if "dense" in snapshot:
        out.update(_encode_table(snapshot["dense"]))
    else:
        out["sparse_codes"] = _encode_array(snapshot["sparse_codes"])
        out["sparse_counts"] = _encode_array(snapshot["sparse_counts"])
    return out


def _decode_joint(payload: dict[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {
        "support_first": int(payload["support_first"]),
        "support_second": int(payload["support_second"]),
        "total": int(payload["total"]),
    }
    if "sparse_codes" in payload:
        out["sparse_codes"] = _decode_array(payload["sparse_codes"])
        out["sparse_counts"] = _decode_array(payload["sparse_counts"])
    else:
        out["dense"] = _decode_table(
            payload, out["support_first"] * out["support_second"]
        )
    return out


#: Encoded counter entries, one per marginal name or ``(first, second)``
#: joint pair: the latest ``(counted, encoded entry)`` (see
#: :func:`encode_counters`).
_CounterMemo = dict[Union[str, tuple[str, str]], tuple[int, dict[str, Any]]]


def _encode_marginal_entry(entry: Mapping[str, Any]) -> dict[str, Any]:
    return {
        "counted": int(entry["counted"]),
        "counts": _encode_array(entry["counts"]),
    }


def _encode_joint_entry(entry: Mapping[str, Any]) -> dict[str, Any]:
    return {
        "first": entry["first"],
        "second": entry["second"],
        "counted": int(entry["counted"]),
        "counter": _encode_joint(entry["counter"]),
    }


def _memoized(
    memo: _CounterMemo,
    key: Union[str, tuple[str, str]],
    entry: Mapping[str, Any],
    encode: Callable[[Mapping[str, Any]], dict[str, Any]],
) -> dict[str, Any]:
    counted = int(entry["counted"])
    hit = memo.get(key)
    if hit is None or hit[0] != counted:
        hit = memo[key] = (counted, encode(entry))
    return hit[1]


def encode_counters(
    state: Mapping[str, Any], memo: _CounterMemo | None = None
) -> dict[str, Any]:
    """JSON-ready ``marginals`` and ``joints`` of a sampler state snapshot.

    ``state`` holds live arrays in the shape
    :meth:`~repro.data.sampling.PrefixSampler.state_snapshot` returns;
    checkpoints and plan-cache partitions both store counters this way.

    ``memo`` skips the encoding of a counter whose prefix has not grown
    since the last call with the same memo; the counters of the query a
    plan is running grow at every boundary, so only the others are
    skipped. It is valid
    only while a counter's contents are a function of its key and its
    ``counted`` prefix, as for the counters of one sampler, so a memo
    is never shared between samplers. Keying on the prefix, not on
    array identity, also covers sparse joints, whose snapshots rebuild
    their arrays every time.
    """
    memo = {} if memo is None else memo
    return {
        "marginals": {
            name: _memoized(memo, name, entry, _encode_marginal_entry)
            for name, entry in state["marginals"].items()
        },
        "joints": [
            _memoized(
                memo, (entry["first"], entry["second"]), entry,
                _encode_joint_entry,
            )
            for entry in state["joints"]
        ],
    }


def decode_counters(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Live-array ``marginals`` and ``joints`` from :func:`encode_counters`."""
    return {
        "marginals": {
            str(name): {
                "counted": int(entry["counted"]),
                "counts": _decode_array(entry["counts"]),
            }
            for name, entry in payload["marginals"].items()
        },
        "joints": [
            {
                "first": str(entry["first"]),
                "second": str(entry["second"]),
                "counted": int(entry["counted"]),
                "counter": _decode_joint(entry["counter"]),
            }
            for entry in payload["joints"]
        ],
    }


def _shuffle_entry(shuffle: Mapping[str, Any]) -> dict[str, Any]:
    """The sampler's row order: layout seed, layout sha256 and run offset."""
    return {
        "layout_seed": int(shuffle["layout_seed"]),
        "layout": str(shuffle["layout"]),
        "offset": int(shuffle["offset"]),
    }


def encode_sampler_state(
    state: dict[str, Any], memo: _CounterMemo | None = None
) -> dict[str, Any]:
    """JSON-ready form of :meth:`~repro.data.sampling.PrefixSampler.state_snapshot`.

    ``memo`` is the sampler's counter memo (see :func:`encode_counters`).
    """
    return {
        "num_rows": int(state["num_rows"]),
        "shuffle": _shuffle_entry(state["shuffle"]),
        "cells_scanned": int(state["cells_scanned"]),
        "cells_saved": int(state.get("cells_saved", 0)),
        **encode_counters(state, memo),
    }


def decode_sampler_state(payload: dict[str, Any]) -> dict[str, Any]:
    """Live-array form :meth:`~repro.data.sampling.PrefixSampler.from_state` takes."""
    try:
        return {
            "num_rows": int(payload["num_rows"]),
            "shuffle": _shuffle_entry(payload["shuffle"]),
            "cells_scanned": int(payload["cells_scanned"]),
            "cells_saved": int(payload.get("cells_saved", 0)),
            **decode_counters(payload),
        }
    except (KeyError, TypeError, AttributeError) as exc:
        raise CheckpointError(
            f"corrupt sampler state in checkpoint: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# Result / loop-state codecs
# ----------------------------------------------------------------------
def _estimate_to_payload(estimate: AttributeEstimate) -> dict[str, Any]:
    return {
        "attribute": estimate.attribute,
        "estimate": estimate.estimate,
        "lower": estimate.lower,
        "upper": estimate.upper,
        "sample_size": estimate.sample_size,
    }


def _estimate_from_payload(payload: dict[str, Any]) -> AttributeEstimate:
    return AttributeEstimate(
        attribute=str(payload["attribute"]),
        estimate=float(payload["estimate"]),
        lower=float(payload["lower"]),
        upper=float(payload["upper"]),
        sample_size=int(payload["sample_size"]),
    )


def _guarantee_to_payload(guarantee: GuaranteeStatus | None) -> dict[str, Any] | None:
    if guarantee is None:
        return None
    return {
        "guarantee_met": guarantee.guarantee_met,
        "stopping_reason": guarantee.stopping_reason,
        "requested_epsilon": guarantee.requested_epsilon,
        "achieved_epsilon": guarantee.achieved_epsilon,
        "undecided": list(guarantee.undecided),
    }


def _guarantee_from_payload(payload: dict[str, Any] | None) -> GuaranteeStatus | None:
    if payload is None:
        return None
    return GuaranteeStatus(
        guarantee_met=bool(payload["guarantee_met"]),
        stopping_reason=str(payload["stopping_reason"]),
        requested_epsilon=float(payload["requested_epsilon"]),
        achieved_epsilon=float(payload["achieved_epsilon"]),
        undecided=tuple(payload["undecided"]),
    )


def _stats_to_payload(stats: RunStats) -> dict[str, Any]:
    return {
        "iterations": stats.iterations,
        "final_sample_size": stats.final_sample_size,
        "population_size": stats.population_size,
        "cells_scanned": stats.cells_scanned,
        "wall_seconds": stats.wall_seconds,
        "candidates_pruned": stats.candidates_pruned,
        "counting_seconds": stats.counting_seconds,
        "bounds_seconds": stats.bounds_seconds,
        "trace_event_count": stats.trace_event_count,
        "cells_saved": stats.cells_saved,
    }


def _stats_from_payload(payload: dict[str, Any]) -> RunStats:
    return RunStats(
        iterations=int(payload["iterations"]),
        final_sample_size=int(payload["final_sample_size"]),
        population_size=int(payload["population_size"]),
        cells_scanned=int(payload["cells_scanned"]),
        wall_seconds=float(payload["wall_seconds"]),
        candidates_pruned=int(payload["candidates_pruned"]),
        counting_seconds=float(payload["counting_seconds"]),
        bounds_seconds=float(payload["bounds_seconds"]),
        trace_event_count=int(payload["trace_event_count"]),
        cells_saved=int(payload.get("cells_saved", 0)),
    )


def result_to_payload(result: Union[TopKResult, FilterResult]) -> dict[str, Any]:
    """JSON-ready form of a retired query result, round-tripping exactly.

    JSON floats serialize via ``repr`` and parse back to the identical
    double, so the restored estimates sort and compare exactly as the
    originals — load-bearing for bit-identical resumed answers.
    """
    if isinstance(result, TopKResult):
        return {
            "type": "top_k",
            "attributes": list(result.attributes),
            "estimates": [_estimate_to_payload(e) for e in result.estimates],
            "stats": _stats_to_payload(result.stats),
            "k": result.k,
            "target": result.target,
            "guarantee": _guarantee_to_payload(result.guarantee),
        }
    if isinstance(result, FilterResult):
        return {
            "type": "filter",
            "attributes": list(result.attributes),
            # A list, not a mapping: FilterResult.estimates is keyed by
            # name but its insertion order (decision order) must survive.
            "estimates": [
                _estimate_to_payload(result.estimates[name])
                for name in result.estimates
            ],
            "stats": _stats_to_payload(result.stats),
            "threshold": result.threshold,
            "target": result.target,
            "guarantee": _guarantee_to_payload(result.guarantee),
        }
    raise CheckpointError(
        f"cannot checkpoint result of type {type(result).__name__}"
    )


def result_from_payload(payload: dict[str, Any]) -> Union[TopKResult, FilterResult]:
    """Rebuild a retired result from :func:`result_to_payload`."""
    try:
        kind = payload["type"]
        if kind == "top_k":
            return TopKResult(
                attributes=[str(a) for a in payload["attributes"]],
                estimates=[_estimate_from_payload(e) for e in payload["estimates"]],
                stats=_stats_from_payload(payload["stats"]),
                k=int(payload["k"]),
                target=payload["target"],
                guarantee=_guarantee_from_payload(payload["guarantee"]),
            )
        if kind == "filter":
            estimates = [_estimate_from_payload(e) for e in payload["estimates"]]
            return FilterResult(
                attributes=[str(a) for a in payload["attributes"]],
                estimates={e.attribute: e for e in estimates},
                stats=_stats_from_payload(payload["stats"]),
                threshold=float(payload["threshold"]),
                target=payload["target"],
                guarantee=_guarantee_from_payload(payload["guarantee"]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"corrupt result payload in checkpoint: {exc}"
        ) from exc
    raise CheckpointError(f"unknown result type {kind!r} in checkpoint")


def loop_state_to_payload(state: LoopCheckpoint) -> dict[str, Any]:
    """JSON-ready form of an engine :class:`~repro.core.engine.LoopCheckpoint`."""
    return {
        "kind": state.kind,
        "next_index": state.next_index,
        "iterations": state.iterations,
        "live": list(state.live),
        "pruned": state.pruned,
        "included": list(state.included),
        "estimates": [_estimate_to_payload(e) for e in state.estimates],
    }


def loop_state_from_payload(payload: dict[str, Any]) -> LoopCheckpoint:
    """Rebuild a :class:`~repro.core.engine.LoopCheckpoint` from its payload."""
    try:
        return LoopCheckpoint(
            kind=str(payload["kind"]),
            next_index=int(payload["next_index"]),
            iterations=int(payload["iterations"]),
            live=tuple(str(a) for a in payload["live"]),
            pruned=int(payload["pruned"]),
            included=tuple(str(a) for a in payload["included"]),
            estimates=tuple(
                _estimate_from_payload(e) for e in payload["estimates"]
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"corrupt loop state in checkpoint: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# Plan progress
# ----------------------------------------------------------------------
def progress_to_payload(
    progress: _PlanProgress, residual: QueryBudget | None
) -> dict[str, Any]:
    """The ``progress`` section for a plan's progress record.

    ``residual`` is what the plan budget has left; it becomes the
    resumed executor's default budget. The plan's own specs go in the
    ``specs`` section; ``plan`` here carries the planner metadata, so a
    resumed plan keeps the interrupted run's count groups and schedule.
    """
    plan = progress.plan
    running = progress.running
    return {
        "results": [
            {"name": name, "result": result_to_payload(result)}
            for name, result in progress.results.items()
        ],
        "per_query_cells": dict(progress.per_query_cells),
        "plan_cells_at_start": progress.cells_at_start,
        "in_flight": None if running is None else {
            "name": running,
            "index": progress.index,
            "cells_before": progress.cells_before,
            "loop": (
                None
                if progress.loop is None
                else loop_state_to_payload(progress.loop)
            ),
        },
        "residual_budget": None if residual is None else {
            "deadline_ms": residual.deadline_ms,
            "max_cells": residual.max_cells,
            "max_sample_size": residual.max_sample_size,
        },
        "plan": {
            "marginal_attributes": list(plan.marginal_attributes),
            "joint_targets": [
                [target, list(names)] for target, names in plan.joint_targets
            ],
            "population_size": plan.population_size,
            "order": plan.order,
            "submission_names": list(plan.submission_names),
            "estimated_cells": list(plan.estimated_cells),
            "cost_model": plan.cost_model,
        },
    }


def progress_from_payload(
    checkpoint: PlanCheckpoint,
) -> tuple[_PlanProgress, QueryBudget | None]:
    """The progress record and residual budget a checkpoint saved.

    The record's residual cell allowance is measured from the sampler
    meter the checkpoint saved: the residual already excludes what was
    spent before it. Malformed sections raise ``AttributeError``,
    ``KeyError``, ``TypeError`` or ``ValueError`` for the caller to
    report.
    """
    progress = checkpoint.progress
    meta = progress["plan"]
    plan = QueryPlan(
        specs=tuple(QuerySpec(**payload) for payload in checkpoint.specs),
        marginal_attributes=tuple(str(a) for a in meta["marginal_attributes"]),
        joint_targets=tuple(
            (str(target), tuple(str(n) for n in names))
            for target, names in meta["joint_targets"]
        ),
        population_size=int(meta["population_size"]),
        order=str(meta["order"]),
        submission_names=tuple(str(n) for n in meta["submission_names"]),
        estimated_cells=tuple(int(c) for c in meta["estimated_cells"]),
        cost_model=str(meta["cost_model"]),
    )
    meter = int(checkpoint.sampler["cells_scanned"])
    in_flight = progress["in_flight"]
    record = _PlanProgress(
        plan=plan,
        cells_at_start=int(progress["plan_cells_at_start"]),
        budget_meter=meter,
        results={
            str(entry["name"]): result_from_payload(entry["result"])
            for entry in progress["results"]
        },
        per_query_cells={
            str(key): int(value)
            for key, value in progress["per_query_cells"].items()
        },
        index=len(plan.specs) if in_flight is None else int(in_flight["index"]),
        cells_before=(
            meter if in_flight is None else int(in_flight["cells_before"])
        ),
        loop=(
            None
            if in_flight is None or in_flight["loop"] is None
            else loop_state_from_payload(in_flight["loop"])
        ),
    )
    residual = progress["residual_budget"]
    budget = None if residual is None else QueryBudget(
        deadline_ms=residual["deadline_ms"],
        max_cells=residual["max_cells"],
        max_sample_size=residual["max_sample_size"],
    )
    return record, budget


# ----------------------------------------------------------------------
# Envelope
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanCheckpoint:
    """One plan-executor snapshot, as five JSON-ready sections.

    The sections are exactly what :meth:`repro.core.plan.PlanExecutor`
    needs to restart mid-plan:

    * ``dataset`` — ``{"fingerprint", "num_rows"}`` identity of the
      store the counters describe;
    * ``executor`` — failure probability, ratcheted sample floor,
      queries run and iteration boundaries seen;
    * ``sampler`` — the row order (layout and offset) and every counter
      (:func:`encode_sampler_state`);
    * ``specs`` — the normalized plan specs, so resuming against a
      different plan is refused;
    * ``progress`` — retired results (with their
      :class:`~repro.core.results.GuaranteeStatus`), per-query cell
      accounting, the in-flight query's loop state, and the residual
      plan budget.
    """

    dataset: dict[str, Any]
    executor: dict[str, Any]
    sampler: dict[str, Any]
    specs: list[dict[str, Any]]
    progress: dict[str, Any]
    schema_version: int = CHECKPOINT_SCHEMA_VERSION

    def verify_store(self, store: ColumnSource) -> None:
        """Refuse this checkpoint against a dataset it does not describe."""
        num_rows = self.dataset.get("num_rows")
        if num_rows != store.num_rows:
            raise CheckpointMismatchError(
                f"checkpoint covers {num_rows} rows but the store has"
                f" {store.num_rows}"
            )
        expected = self.dataset.get("fingerprint")
        actual = store_fingerprint(store)
        if expected != actual:
            raise CheckpointMismatchError(
                "checkpoint dataset fingerprint does not match this store"
                f" (checkpoint {str(expected)[:12]}..., store {actual[:12]}...);"
                " refusing to resume against different data"
            )


def _json_default(obj: object) -> object:
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    # json.dumps requires its default= hook to raise TypeError, not a
    # repro error, to signal "cannot serialize".
    raise TypeError(
        f"checkpoint payload contains non-serializable {type(obj)!r}"
    )


def _canonical(payload: dict[str, Any]) -> str:
    """The one serialization the sha256 is computed over, save and load."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=_json_default
    )


def write_envelope(
    path: Union[str, Path],
    payload: dict[str, Any],
    *,
    marker: str,
    schema_version: int,
) -> int:
    """Atomically write ``payload`` sealed in the envelope; return bytes written.

    The envelope is ``{"format": marker, "schema_version", "sha256",
    "payload"}`` with the sha256 over the payload's canonical
    serialization. The payload is serialized once: that text is hashed
    and spliced into the envelope in canonical key order, so the file
    is byte-identical to the canonical serialization of the whole
    envelope. The write goes through
    :func:`repro.durability.atomic.atomic_write_text`, so ``path`` only
    ever holds a complete document.
    """
    body = _canonical(payload)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    text = (
        f'{{"format":{json.dumps(marker)},"payload":{body},'
        f'"schema_version":{int(schema_version)},"sha256":"{digest}"}}'
    )
    atomic_write_text(path, text)
    # ASCII throughout (json.dumps escapes the rest): one byte per character.
    return len(text)


def read_envelope(
    path: Union[str, Path], *, marker: str, schema_version: int
) -> dict[str, Any]:
    """The verified payload of a file written by :func:`write_envelope`.

    Verification order: readability and JSON shape, format marker
    (:class:`~repro.exceptions.CheckpointError`), schema version
    (:class:`~repro.exceptions.CheckpointMismatchError` — old files are
    refused, never migrated), then the sha256 over the canonical payload
    (:class:`~repro.exceptions.CheckpointError`, e.g. a file truncated
    by a crash that bypassed the atomic writer).
    """
    target = Path(path)
    try:
        text = target.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # undecodable text, a NUL in the path
        raise CheckpointError(f"cannot read {target}: {exc}") from exc
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"{target} is not valid JSON ({exc}); the file is corrupt or"
            " was written without the atomic writer"
        ) from exc
    if not isinstance(envelope, dict) or envelope.get("format") != marker:
        raise CheckpointError(f"{target} is not a {marker!r} file")
    version = envelope.get("schema_version")
    if version != schema_version:
        raise CheckpointMismatchError(
            f"{target} has schema version {version!r}; this build reads"
            f" only version {schema_version} and never migrates old files;"
            " start the run again without it"
        )
    payload = envelope.get("payload")
    if not isinstance(payload, dict):
        raise CheckpointError(f"{target} has no payload object")
    digest = hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()
    if digest != envelope.get("sha256"):
        raise CheckpointError(
            f"{target} failed its sha256 integrity check; refusing to read"
            " a corrupt file"
        )
    return payload


def save_checkpoint(checkpoint: PlanCheckpoint, path: Union[str, Path]) -> int:
    """Atomically write ``checkpoint`` to ``path``; return bytes written."""
    payload = {key: getattr(checkpoint, key) for key in _PAYLOAD_KEYS}
    return write_envelope(
        path,
        payload,
        marker=CHECKPOINT_FORMAT,
        schema_version=checkpoint.schema_version,
    )


def load_checkpoint(
    path: Union[str, Path], *, store: ColumnSource | None = None
) -> PlanCheckpoint:
    """Load and verify a checkpoint written by :func:`save_checkpoint`.

    After the envelope checks of :func:`read_envelope`, the payload must
    hold every section, and — when ``store`` is given — the dataset
    fingerprint must match (:class:`~repro.exceptions.CheckpointMismatchError`).
    """
    payload = read_envelope(
        path, marker=CHECKPOINT_FORMAT, schema_version=CHECKPOINT_SCHEMA_VERSION
    )
    missing = [key for key in _PAYLOAD_KEYS if key not in payload]
    if missing:
        raise CheckpointError(
            f"checkpoint {path} payload is missing sections: {missing}"
        )
    if not isinstance(payload["specs"], list):
        raise CheckpointError(f"checkpoint {path} has a malformed spec list")
    checkpoint = PlanCheckpoint(**{key: payload[key] for key in _PAYLOAD_KEYS})
    if store is not None:
        checkpoint.verify_store(store)
    return checkpoint
