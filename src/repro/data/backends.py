"""Pluggable counting backends for the sampling substrate.

Occurrence counting — gathering a block of prefix rows from an encoded
column and histogramming it with ``bincount`` — is the only data-touching
operation on the adaptive query hot path, and the paper's cost model
(cells scanned) charges exactly this work. Everything above it (bounds,
stopping rules, pruning) is pure arithmetic over the resulting counts.

This module isolates that operation behind the :class:`CountingBackend`
protocol so :class:`~repro.data.sampling.PrefixSampler` can batch the
per-iteration work of *all* live candidate columns into a single call and
swap the execution strategy without touching cost accounting or results:

* :class:`NumpyBackend` — one sequential gather + ``bincount`` pass per
  column (the default; equivalent to the historical per-attribute path,
  minus the per-call overhead).
* :class:`ProcessBackend` — row-sharded ``multiprocessing`` workers.
  Each worker receives the shared permutation/rows block (a
  ``multiprocessing.shared_memory`` segment, or a plain slice in
  sequential mode) plus column references — shared-memory segments for
  in-memory columns, ``(path, dtype, offset)`` descriptors for
  memory-mapped columns, which workers open independently — computes a
  per-shard ``bincount`` for every requested column, and the parent
  merges the shards by int64 summation. Integer addition is exact, so
  the merged counts are bit-identical to a single-pass ``bincount``.

Backends are pure functions of their inputs — every count array a backend
returns is bit-identical across backends, which is what lets the engine
guarantee identical query results under any :data:`BACKEND_NAMES` choice.

:func:`resolve_backend` maps the user-facing spelling (a name, an
instance, or ``None`` meaning "honour the ``REPRO_BACKEND`` environment
variable") onto a backend instance via the :data:`BACKEND_REGISTRY`; the
four ``swope_*`` entry points, :class:`~repro.core.plan.PlanExecutor`,
and the CLI all accept the same spelling, and the CLI derives its
``--backend`` choices from :func:`backend_names` so registered backends
(and the ``REPRO_BACKEND`` validation error) stay in sync automatically.
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import shared_memory
from typing import Any, Protocol

import numpy as np

from repro.exceptions import ParameterError

__all__ = [
    "BACKEND_NAMES",
    "BACKEND_REGISTRY",
    "CountingBackend",
    "NumpyBackend",
    "ProcessBackend",
    "backend_names",
    "register_backend",
    "resolve_backend",
]

#: Environment variable consulted when no backend is specified.
BACKEND_ENV_VAR = "REPRO_BACKEND"


def _count_one(
    column: np.ndarray, rows: np.ndarray | slice, support_size: int
) -> np.ndarray:
    """Gather ``column[rows]`` and histogram it into ``support_size`` bins.

    This is the exact operation the sampler's incremental marginal
    counters have always performed; keeping it as the single shared
    kernel is what makes all backends bit-identical.
    """
    return np.bincount(column[rows], minlength=support_size)


class CountingBackend(Protocol):
    """Strategy for counting encoded columns over a block of prefix rows."""

    #: Stable identifier recorded in diagnostics (``"numpy"``, ``"process"``).
    name: str

    def count_columns(
        self,
        columns: Sequence[np.ndarray],
        support_sizes: Sequence[int],
        rows: np.ndarray | slice,
    ) -> list[np.ndarray]:
        """Per-column occurrence counts of ``column[rows]``.

        ``rows`` is either a materialized permutation block (shuffled
        sampling) or a plain slice (sequential sampling); it is shared
        by every column of the batch. The i-th result has length
        ``support_sizes[i]`` at least, exactly as ``np.bincount`` with
        ``minlength`` returns it.
        """
        ...  # pragma: no cover - protocol


class NumpyBackend:
    """Default backend: sequential NumPy gather + ``bincount`` per column."""

    name = "numpy"

    def count_columns(
        self,
        columns: Sequence[np.ndarray],
        support_sizes: Sequence[int],
        rows: np.ndarray | slice,
    ) -> list[np.ndarray]:
        return [
            _count_one(column, rows, support)
            for column, support in zip(columns, support_sizes)
        ]


# ----------------------------------------------------------------------
# Process backend: row-sharded workers over shared memory / memmaps
# ----------------------------------------------------------------------
#: Shared-memory column segments cached per backend before falling back
#: to per-call publication (a backstop against callers that hand a fresh
#: array every call; samplers reuse store handles, so this never trips).
_COLUMN_CACHE_LIMIT = 128

#: A column reference a worker can resolve without the parent's memory:
#: ``("mmap", path, dtype, length, offset)`` or ``("shm", name, dtype,
#: length)``; rows blocks use ``("slice", start, stop)`` or ``("rows",
#: name, dtype, length)`` (an uncached per-call segment).
_ArrayRef = tuple[Any, ...]


#: Whether this worker must unregister attached segments from its
#: resource tracker. Fork-context workers share the parent's tracker —
#: the attach-time registration is a no-op there and unregistering would
#: steal the parent's entry; spawn-context workers own a separate
#: tracker that would otherwise report (and try to unlink) the parent's
#: segments as leaks at worker exit. Set by :func:`_worker_init`.
_WORKER_UNTRACK = False


def _worker_init(untrack: bool) -> None:
    """Pool initializer: record the tracker policy for this worker."""
    global _WORKER_UNTRACK
    _WORKER_UNTRACK = untrack


def _untrack_shared_memory(segment: shared_memory.SharedMemory) -> None:
    """Detach ``segment`` from this worker's resource tracker if needed.

    The parent owns every segment and unlinks it; see
    :data:`_WORKER_UNTRACK` for why only spawn-context workers must
    undo the attach-time registration.
    """
    if not _WORKER_UNTRACK:
        return
    try:  # pragma: no cover - tracker internals vary across versions
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:
        pass


#: Worker-side cache of attached columns, keyed by their reference; one
#: attach (or memmap open) per column per worker for the pool's lifetime.
_WORKER_COLUMNS: dict[_ArrayRef, tuple[np.ndarray, object]] = {}


def _worker_resolve_column(ref: _ArrayRef) -> np.ndarray:
    """Attach (and cache) the array a column reference points at."""
    cached = _WORKER_COLUMNS.get(ref)
    if cached is not None:
        return cached[0]
    kind = ref[0]
    if kind == "mmap":
        _, path, dtype, length, offset = ref
        array: np.ndarray = np.memmap(
            path, dtype=np.dtype(dtype), mode="r", offset=offset, shape=(length,)
        )
        keepalive: object = None
    elif kind == "shm":
        _, name, dtype, length = ref
        segment = shared_memory.SharedMemory(name=name)
        _untrack_shared_memory(segment)
        array = np.ndarray((length,), dtype=np.dtype(dtype), buffer=segment.buf)
        array.setflags(write=False)
        keepalive = segment
    else:  # pragma: no cover - guarded by the parent
        raise ParameterError(f"unknown column reference kind {kind!r}")
    _WORKER_COLUMNS[ref] = (array, keepalive)
    return array


def _worker_resolve_rows(
    rows_ref: _ArrayRef, lo: int, hi: int
) -> np.ndarray | slice:
    """Materialise this shard's ``[lo, hi)`` piece of the rows block."""
    kind = rows_ref[0]
    if kind == "slice":
        _, start, _stop = rows_ref
        return slice(start + lo, start + hi)
    if kind == "rows":
        _, name, dtype, length = rows_ref
        segment = shared_memory.SharedMemory(name=name)
        try:
            _untrack_shared_memory(segment)
            block = np.ndarray(
                (length,), dtype=np.dtype(dtype), buffer=segment.buf
            )
            # Copy the shard out so the segment can close immediately:
            # per-call segments are unlinked by the parent after the
            # batch, so nothing worker-side may keep them mapped.
            return np.array(block[lo:hi])
        finally:
            segment.close()
    raise ParameterError(  # pragma: no cover - guarded by the parent
        f"unknown rows reference kind {kind!r}"
    )


def _count_shard(
    column_refs: Sequence[_ArrayRef],
    support_sizes: Sequence[int],
    rows_ref: _ArrayRef,
    lo: int,
    hi: int,
) -> list[np.ndarray]:
    """Worker task: per-column bincount over one row shard."""
    rows = _worker_resolve_rows(rows_ref, lo, hi)
    return [
        np.bincount(_worker_resolve_column(ref)[rows], minlength=support)
        for ref, support in zip(column_refs, support_sizes)
    ]


class ProcessBackend:
    """Row-sharded counting on a pool of worker processes.

    The rows block is split into ``max_workers`` contiguous shards; each
    worker histograms *every* requested column over its shard and the
    parent merges the per-shard counts by int64 summation — integer
    addition is exact, so the merged counts are bit-identical to a
    single-pass ``bincount`` (the property the batch==scalar identity
    suite gates on).

    Data crosses the process boundary without copying the dataset:

    * memory-mapped columns (an :class:`~repro.data.mmap_store.MmapStore`)
      travel as ``(path, dtype, length, offset)`` descriptors — every
      worker opens its own read-only map;
    * in-memory columns are published once per backend lifetime into a
      ``multiprocessing.shared_memory`` segment (cached by the column's
      identity, so repeated batches over the same store pay once);
    * a shuffled rows block is published as a per-call shared-memory
      segment and unlinked as soon as the batch completes; a sequential
      block is just ``(start, stop)``.

    Parameters
    ----------
    max_workers:
        Worker-pool size; defaults to ``os.cpu_count()``.
    min_parallel_cells:
        Batches smaller than this many cells (rows × columns) run on the
        serial kernel in-process — below the threshold the dispatch
        overhead exceeds the counting work.

    Call :meth:`close` to release the pool and the shared-memory
    segments deterministically; garbage collection is the backstop.
    """

    name = "process"

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        min_parallel_cells: int = 1 << 18,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ParameterError(f"max_workers must be >= 1, got {max_workers}")
        if min_parallel_cells < 0:
            raise ParameterError(
                f"min_parallel_cells must be >= 0, got {min_parallel_cells}"
            )
        self._max_workers = max_workers or os.cpu_count() or 1
        self._min_parallel_cells = min_parallel_cells
        self._executor: ProcessPoolExecutor | None = None
        # id(column) -> (pinned column, segment, ref): pinning the array
        # keeps the id stable for the cache's lifetime.
        self._column_segments: dict[int, tuple[np.ndarray, Any, _ArrayRef]] = {}
        self._closed = False

    # -- pool / segment lifecycle --------------------------------------
    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                context = multiprocessing.get_context()
            self._executor = ProcessPoolExecutor(
                max_workers=self._max_workers,
                mp_context=context,
                initializer=_worker_init,
                initargs=(context.get_start_method() != "fork",),
            )
        return self._executor

    def close(self) -> None:
        """Shut the worker pool down and unlink the shared-memory segments."""
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        for _, segment, _ in self._column_segments.values():
            self._release_segment(segment)
        self._column_segments.clear()

    @staticmethod
    def _release_segment(segment: Any) -> None:
        try:
            segment.close()
            segment.unlink()
        except Exception:  # pragma: no cover - already-unlinked races
            pass

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    # -- reference building --------------------------------------------
    @staticmethod
    def _memmap_ref(column: np.ndarray) -> _ArrayRef | None:
        """A file descriptor-free reference for a whole-column memmap.

        Only a *fresh* memmap (not a view of one) is referenced by file:
        numpy preserves the parent's ``offset`` on views, so a sliced
        memmap cannot be re-opened faithfully from its attributes and
        falls through to the shared-memory path instead.
        """
        if not isinstance(column, np.memmap):
            return None
        if isinstance(column.base, np.ndarray):
            return None  # a view; offset/shape no longer describe the file
        filename = getattr(column, "filename", None)
        if filename is None or column.ndim != 1:
            return None
        return (
            "mmap",
            str(filename),
            column.dtype.str,
            int(column.shape[0]),
            int(column.offset),
        )

    def _publish_array(self, array: np.ndarray) -> tuple[Any, _ArrayRef]:
        """Copy ``array`` into a fresh shared-memory segment."""
        data = np.ascontiguousarray(array)
        segment = shared_memory.SharedMemory(create=True, size=max(1, data.nbytes))
        view: np.ndarray = np.ndarray(
            data.shape, dtype=data.dtype, buffer=segment.buf
        )
        view[:] = data
        return segment, ("shm", segment.name, data.dtype.str, int(data.shape[0]))

    def _column_ref(self, column: np.ndarray) -> tuple[_ArrayRef, Any]:
        """Reference for one column; second item is a per-call segment to
        clean up (``None`` when cached or file-backed)."""
        ref = self._memmap_ref(column)
        if ref is not None:
            return ref, None
        cached = self._column_segments.get(id(column))
        if cached is not None:
            return cached[2], None
        segment, ref = self._publish_array(column)
        if len(self._column_segments) < _COLUMN_CACHE_LIMIT:
            self._column_segments[id(column)] = (column, segment, ref)
            return ref, None
        return ref, segment

    # -- the counting call ---------------------------------------------
    def count_columns(
        self,
        columns: Sequence[np.ndarray],
        support_sizes: Sequence[int],
        rows: np.ndarray | slice,
    ) -> list[np.ndarray]:
        if self._closed:
            raise ParameterError("ProcessBackend is closed")
        if not columns:
            return []
        if isinstance(rows, slice):
            start = rows.start or 0
            stop = rows.stop if rows.stop is not None else 0
            num_rows = max(0, stop - start)
        else:
            num_rows = int(rows.shape[0])
        workers = self._max_workers
        if (
            workers == 1
            or num_rows * len(columns) < self._min_parallel_cells
            or num_rows < workers
        ):
            return [
                _count_one(column, rows, support)
                for column, support in zip(columns, support_sizes)
            ]
        transient: list[Any] = []
        try:
            refs: list[_ArrayRef] = []
            for column in columns:
                ref, scratch = self._column_ref(column)
                refs.append(ref)
                if scratch is not None:
                    transient.append(scratch)
            if isinstance(rows, slice):
                rows_ref: _ArrayRef = ("slice", start, stop)
            else:
                segment, published = self._publish_array(rows)
                transient.append(segment)
                rows_ref = ("rows", published[1], published[2], published[3])
            bounds = np.linspace(0, num_rows, workers + 1, dtype=np.int64)
            futures = [
                self._pool().submit(
                    _count_shard,
                    refs,
                    list(support_sizes),
                    rows_ref,
                    int(bounds[i]),
                    int(bounds[i + 1]),
                )
                for i in range(workers)
                if bounds[i] < bounds[i + 1]
            ]
            shards = [future.result() for future in futures]
        finally:
            # Unlink only after every worker finished: a late attach to
            # an already-unlinked name would fail.
            for segment in transient:
                self._release_segment(segment)
        return [
            self._merge_shards([shard[i] for shard in shards])
            for i in range(len(columns))
        ]

    @staticmethod
    def _merge_shards(parts: list[np.ndarray]) -> np.ndarray:
        """Sum per-shard bincounts; int64 addition keeps this exact."""
        width = max(part.shape[0] for part in parts)
        total = np.zeros(width, dtype=np.int64)
        for part in parts:
            total[: part.shape[0]] += part
        return total


# ----------------------------------------------------------------------
# Registry and resolution
# ----------------------------------------------------------------------
#: Name → zero-argument factory. The CLI and :func:`resolve_backend`
#: both read this, so registering a backend updates ``--backend``
#: choices and the ``REPRO_BACKEND`` validation error in one place.
BACKEND_REGISTRY: dict[str, Callable[[], CountingBackend]] = {}


def register_backend(
    name: str,
    factory: Callable[[], CountingBackend],
    *,
    replace: bool = False,
) -> None:
    """Register a counting backend under ``name``.

    ``factory`` is a zero-argument callable (typically the class) run on
    every :func:`resolve_backend` resolution. Registering an existing
    name raises unless ``replace=True``.
    """
    if not name or not isinstance(name, str):
        raise ParameterError(f"backend name must be a non-empty string, got {name!r}")
    if name in BACKEND_REGISTRY and not replace:
        raise ParameterError(
            f"backend {name!r} is already registered; pass replace=True to"
            " override it"
        )
    BACKEND_REGISTRY[name] = factory


def backend_names() -> tuple[str, ...]:
    """The currently registered backend names, in registration order."""
    return tuple(BACKEND_REGISTRY)


register_backend("numpy", NumpyBackend)
register_backend("process", ProcessBackend)

#: The built-in backend names (a static snapshot; use
#: :func:`backend_names` to include backends registered at runtime).
BACKEND_NAMES = backend_names()

def resolve_backend(backend: str | CountingBackend | None) -> CountingBackend:
    """Normalise a backend spelling into a :class:`CountingBackend`.

    ``None`` reads the ``REPRO_BACKEND`` environment variable (default
    ``"numpy"``) — which is how CI runs the whole test suite under the
    process backend without touching call sites. A string picks a
    registered name from :data:`BACKEND_REGISTRY`; anything else must
    already satisfy the protocol and is returned as-is.
    """
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR, "numpy")
    if isinstance(backend, str):
        factory = BACKEND_REGISTRY.get(backend)
        if factory is None:
            raise ParameterError(
                f"unknown counting backend {backend!r}; choose one of"
                f" {backend_names()} or pass a CountingBackend instance"
            )
        return factory()
    if not hasattr(backend, "count_columns"):
        raise ParameterError(
            f"backend {backend!r} does not implement CountingBackend"
            " (missing count_columns)"
        )
    return backend
