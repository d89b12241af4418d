"""Memory-mapped, chunked on-disk column store (the out-of-core engine).

:class:`ColumnStore` holds every encoded column resident in memory, which
caps the reproduction at datasets that fit in RAM. This module provides
the second :class:`~repro.data.column_store.ColumnSource` implementation:
one ``.npy`` file per column, opened read-only through ``numpy``'s memmap
machinery, plus a schema-versioned JSON manifest written through
:func:`repro.durability.atomic.atomic_write_text`.

The design leans on the engine's one access pattern. Prefix sampling only
ever reads *blocks* — a permutation gather or a sequential slice of each
requested column — and fancy-indexing a :class:`numpy.memmap` touches
only the pages the block lives on. So an ``N ≫ RAM`` dataset streams
through the adaptive loop with resident memory proportional to the
*sample*, not the dataset; convergence at ``M ≪ N`` (the paper's whole
point) is what keeps the working set small.

On-disk layout of a store directory::

    manifest.json      {"format", "schema_version", "num_rows",
                        "fingerprint", "columns": [{"name", "support_size",
                        "dtype", "file"}, ...]}
    col_00000.npy      encoded column 0 (smallest signed int dtype that
                       fits: int8 up to 128 values; older stores hold
                       int16 files, which open and verify alike)
    col_00001.npy      ...

The manifest's ``fingerprint`` is byte-identical to
:meth:`ColumnStore.fingerprint` over the same encoded data — computed by
the same helper, which streams the finished column files in bounded
chunks and hashes each in its canonical width — so checkpoints and plan
caches written against the in-memory store verify against the mmap
store and vice versa.

Construction is chunked for the same reason reads are:
:class:`MmapStoreWriter` preallocates the column files and accepts row
chunks, so a dataset can be built by a generator that never holds more
than one chunk in memory. Column files are written to hidden ``.tmp``
siblings and published by ``os.replace`` before the manifest lands
(itself atomic), so a crash mid-build never leaves a directory that
``MmapStore.open`` would mistake for a complete store.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping
from pathlib import Path
from typing import Any

import numpy as np

from repro.data.column_store import (
    _CHUNK_ROWS,
    ColumnStore,
    _fingerprint_columns,
    _iter_chunks,
    _pick_dtype,
)
from repro.durability.atomic import atomic_write_text
from repro.exceptions import ParameterError, SchemaError

__all__ = [
    "MMAP_STORE_FORMAT",
    "MMAP_STORE_SCHEMA_VERSION",
    "MANIFEST_NAME",
    "MmapStore",
    "MmapStoreWriter",
]

#: Discriminator in the manifest; a directory without it is not a store.
MMAP_STORE_FORMAT = "repro-mmap-store"

#: Bumped on any change to the manifest layout or the column file format;
#: mismatching stores are refused, never migrated (rebuild is cheap and
#: the fingerprint guarantees the rebuild is the same dataset).
MMAP_STORE_SCHEMA_VERSION = 1

#: Manifest file name inside a store directory.
MANIFEST_NAME = "manifest.json"


def _column_file_name(index: int) -> str:
    """Stable, filesystem-safe file name for the ``index``-th column."""
    return f"col_{index:05d}.npy"


class MmapStoreWriter:
    """Chunked builder of an on-disk store (``N ≫ RAM`` construction).

    Parameters
    ----------
    directory:
        Target directory (created if missing). Must not already contain
        a finished store manifest.
    support_sizes:
        Ordered ``{attribute: u_alpha}`` mapping fixing the schema. The
        column dtype is the smallest signed integer type holding the
        support, as :class:`ColumnStore` picks it. The fingerprints of
        the two engines agree because both hash every column in its
        canonical width (see :meth:`ColumnStore.fingerprint`), not
        because they store the same dtype: a store written with int16
        files before int8 storage existed hashes like its rebuild.
    num_rows:
        Total number of records the finished store will hold; the column
        files are preallocated at this length and filled by
        :meth:`append`.

    Examples
    --------
    >>> writer = MmapStoreWriter(tmp, {"a": 4, "b": 2}, num_rows=10**6)
    >>> for chunk in generate_chunks():      # doctest: +SKIP
    ...     writer.append(chunk)
    >>> store = writer.finalize()            # doctest: +SKIP
    """

    def __init__(
        self,
        directory: str | Path,
        support_sizes: Mapping[str, int],
        num_rows: int,
    ) -> None:
        if num_rows < 0:
            raise ParameterError(f"num_rows must be >= 0, got {num_rows}")
        if not support_sizes:
            raise SchemaError("an mmap store requires at least one column")
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        if (self._directory / MANIFEST_NAME).exists():
            raise ParameterError(
                f"{self._directory} already holds a store manifest; refusing"
                " to overwrite an existing mmap store"
            )
        self._num_rows = num_rows
        self._support: dict[str, int] = {}
        self._files: dict[str, Path] = {}
        self._memmaps: dict[str, np.ndarray] = {}
        for index, (name, raw_support) in enumerate(support_sizes.items()):
            support = int(raw_support)
            if support < 1:
                raise SchemaError(
                    f"support size of {name!r} must be >= 1, got {support}"
                )
            self._support[name] = support
            final = self._directory / _column_file_name(index)
            temp = final.with_name(f".{final.name}.tmp-{os.getpid()}")
            # open_memmap writes a valid .npy header up front; the data
            # region fills lazily as chunks land (sparse until then).
            self._memmaps[name] = np.lib.format.open_memmap(
                temp, mode="w+", dtype=_pick_dtype(support), shape=(num_rows,)
            )
            self._files[name] = final
        self._written = 0
        self._finalized = False

    @property
    def rows_written(self) -> int:
        """Rows appended so far (finalize requires all ``num_rows``)."""
        return self._written

    def append(self, chunk: Mapping[str, np.ndarray]) -> None:
        """Append one row chunk: a same-length block of every column."""
        if self._finalized:
            raise ParameterError("writer is finalized; no further appends")
        if set(chunk) != set(self._support):
            missing = sorted(set(self._support) - set(chunk))
            extra = sorted(set(chunk) - set(self._support))
            raise SchemaError(
                f"chunk columns disagree with the schema (missing={missing},"
                f" unexpected={extra})"
            )
        arrays: dict[str, np.ndarray] = {}
        length: int | None = None
        for name in self._support:
            arr = np.asarray(chunk[name])
            if arr.ndim != 1:
                raise SchemaError(
                    f"chunk column {name!r} must be 1-D, got shape {arr.shape}"
                )
            if arr.dtype.kind not in ("i", "u"):
                raise SchemaError(
                    f"chunk column {name!r} must be an integer array, got"
                    f" dtype {arr.dtype}"
                )
            if length is None:
                length = arr.shape[0]
            elif arr.shape[0] != length:
                raise SchemaError(
                    f"chunk column {name!r} has {arr.shape[0]} rows, expected"
                    f" {length}"
                )
            if arr.size:
                low = int(arr.min())
                high = int(arr.max())
                if low < 0:
                    raise SchemaError(f"column {name!r} contains negative codes")
                if high >= self._support[name]:
                    raise SchemaError(
                        f"column {name!r} contains code {high} but declares"
                        f" support size {self._support[name]}"
                    )
            arrays[name] = arr
        assert length is not None
        if self._written + length > self._num_rows:
            raise ParameterError(
                f"chunk overflows the store: {self._written} + {length} rows"
                f" > declared num_rows {self._num_rows}"
            )
        stop = self._written + length
        for name, arr in arrays.items():
            self._memmaps[name][self._written : stop] = arr
        self._written = stop

    def finalize(self) -> "MmapStore":
        """Flush, publish the column files, write the manifest, and open."""
        if self._finalized:
            raise ParameterError("writer is already finalized")
        if self._written != self._num_rows:
            raise ParameterError(
                f"store is incomplete: {self._written} of {self._num_rows}"
                " rows written"
            )
        entries: list[tuple[str, int, np.ndarray]] = []
        for name, memmap in self._memmaps.items():
            if isinstance(memmap, np.memmap):
                memmap.flush()
            entries.append((name, self._support[name], memmap))
        fingerprint = _fingerprint_columns(self._num_rows, entries)
        columns_payload = []
        for index, name in enumerate(self._support):
            memmap = self._memmaps[name]
            temp = Path(getattr(memmap, "filename", ""))
            dtype_str = memmap.dtype.str
            # Drop our reference before publishing so the map closes.
            del self._memmaps[name]
            del memmap
            os.replace(temp, self._files[name])
            columns_payload.append(
                {
                    "name": name,
                    "support_size": self._support[name],
                    "dtype": dtype_str,
                    "file": self._files[name].name,
                }
            )
        manifest = {
            "format": MMAP_STORE_FORMAT,
            "schema_version": MMAP_STORE_SCHEMA_VERSION,
            "num_rows": self._num_rows,
            "fingerprint": fingerprint,
            "columns": columns_payload,
        }
        atomic_write_text(
            self._directory / MANIFEST_NAME,
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        )
        self._finalized = True
        return MmapStore.open(self._directory)


class MmapStore:
    """Read-only memory-mapped column store (open with :meth:`open`).

    Satisfies :class:`~repro.data.column_store.ColumnSource`: the
    sampler, the plan executor, checkpoints, and all four ``swope_*``
    facades accept it wherever a :class:`ColumnStore` is accepted.
    :meth:`column` hands out the cached read-only memmap — the counting
    backend indexes it with permutation blocks, touching only the pages
    the sample lives on.
    """

    def __init__(
        self, directory: Path, manifest: dict[str, Any], *, _token: object = None
    ) -> None:
        if _token is not _OPEN_TOKEN:
            raise ParameterError(
                "use MmapStore.open(directory) /"
                " MmapStore.from_column_store(...) to construct a store"
            )
        self._directory = directory
        self._manifest = manifest
        self._num_rows = int(manifest["num_rows"])
        self._fingerprint = str(manifest["fingerprint"])
        self._support: dict[str, int] = {}
        self._dtypes: dict[str, np.dtype] = {}
        self._files: dict[str, Path] = {}
        for entry in manifest["columns"]:
            name = str(entry["name"])
            self._support[name] = int(entry["support_size"])
            self._dtypes[name] = np.dtype(str(entry["dtype"]))
            path = directory / str(entry["file"])
            if not path.is_file():
                raise SchemaError(
                    f"mmap store at {directory} is missing column file"
                    f" {entry['file']!r} (declared for attribute {name!r})"
                )
            self._files[name] = path
        self._columns: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, directory: str | Path) -> "MmapStore":
        """Open a finished store directory (validates the manifest)."""
        root = Path(directory)
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.is_file():
            raise SchemaError(
                f"{root} is not an mmap store: no {MANIFEST_NAME} (an"
                " interrupted build leaves no manifest; rebuild the store)"
            )
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise SchemaError(f"corrupt manifest at {manifest_path}: {exc}") from exc
        if not isinstance(manifest, dict) or manifest.get("format") != (
            MMAP_STORE_FORMAT
        ):
            raise SchemaError(
                f"{manifest_path} is not a {MMAP_STORE_FORMAT} manifest"
            )
        version = manifest.get("schema_version")
        if version != MMAP_STORE_SCHEMA_VERSION:
            raise SchemaError(
                f"mmap store schema version {version!r} is not supported"
                f" (this build reads version {MMAP_STORE_SCHEMA_VERSION});"
                " rebuild the store"
            )
        for key in ("num_rows", "fingerprint", "columns"):
            if key not in manifest:
                raise SchemaError(f"manifest at {manifest_path} lacks {key!r}")
        if not manifest["columns"]:
            raise SchemaError("an mmap store requires at least one column")
        return cls(root, manifest, _token=_OPEN_TOKEN)

    @classmethod
    def from_column_store(
        cls,
        store: ColumnStore,
        directory: str | Path,
        *,
        chunk_rows: int = _CHUNK_ROWS,
    ) -> "MmapStore":
        """Materialise an in-memory store on disk (chunked copy)."""
        if chunk_rows < 1:
            raise ParameterError(f"chunk_rows must be >= 1, got {chunk_rows}")
        writer = MmapStoreWriter(
            directory, store.support_sizes(), store.num_rows
        )
        for block in _iter_chunks(store.num_rows, chunk_rows):
            writer.append(
                {name: store.column(name)[block] for name in store.attributes}
            )
        return writer.finalize()

    # ------------------------------------------------------------------
    # Shape accessors
    # ------------------------------------------------------------------
    @property
    def directory(self) -> Path:
        """The store's on-disk root."""
        return self._directory

    @property
    def num_rows(self) -> int:
        """Number of records ``N`` in the dataset."""
        return self._num_rows

    @property
    def num_attributes(self) -> int:
        """Number of attributes ``h`` in the dataset."""
        return len(self._support)

    @property
    def attributes(self) -> tuple[str, ...]:
        """Attribute names in manifest (schema) order."""
        return tuple(self._support)

    def __contains__(self, name: object) -> bool:
        return name in self._support

    def __len__(self) -> int:
        return self._num_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MmapStore(directory={str(self._directory)!r},"
            f" num_rows={self._num_rows}, num_attributes={self.num_attributes})"
        )

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """Read-only memmap handle of attribute ``name`` (opened lazily)."""
        handle = self._columns.get(name)
        if handle is not None:
            return handle
        if name not in self._support:
            raise SchemaError(f"unknown attribute {name!r}")
        loaded = np.load(self._files[name], mmap_mode="r")
        if loaded.ndim != 1 or loaded.shape[0] != self._num_rows:
            raise SchemaError(
                f"column file for {name!r} has shape {loaded.shape}, expected"
                f" ({self._num_rows},) — store files were modified after build"
            )
        if loaded.dtype != self._dtypes[name]:
            raise SchemaError(
                f"column file for {name!r} has dtype {loaded.dtype}, manifest"
                f" declares {self._dtypes[name]}"
            )
        self._columns[name] = loaded
        return loaded

    def column_block(self, name: str, rows: np.ndarray | slice) -> np.ndarray:
        """Materialised block ``column(name)[rows]`` (touches only its pages)."""
        return np.asarray(self.column(name)[rows])

    def support_size(self, name: str) -> int:
        """Return ``u_alpha``, the number of distinct values of ``name``."""
        try:
            return self._support[name]
        except KeyError:
            raise SchemaError(f"unknown attribute {name!r}") from None

    def column_dtype(self, name: str) -> np.dtype:
        """Storage dtype of ``name`` as the manifest declares it."""
        try:
            return self._dtypes[name]
        except KeyError:
            raise SchemaError(f"unknown attribute {name!r}") from None

    def support_sizes(self) -> dict[str, int]:
        """Return a fresh ``{attribute: u_alpha}`` mapping for all attributes."""
        return dict(self._support)

    def max_support_size(self) -> int:
        """Return ``u_max``, the largest support size over all attributes."""
        return max(self._support.values())

    # ------------------------------------------------------------------
    # Counting / identity
    # ------------------------------------------------------------------
    def value_counts(self, name: str, num_rows: int | None = None) -> np.ndarray:
        """Exact occurrence counts of ``name``, streamed in bounded chunks."""
        column = self.column(name)
        stop = self._num_rows if num_rows is None else min(num_rows, self._num_rows)
        counts = np.zeros(self.support_size(name), dtype=np.int64)
        for block in _iter_chunks(stop):
            part = np.bincount(
                np.asarray(column[block]), minlength=counts.shape[0]
            )
            counts += part
        return counts

    def fingerprint(self) -> str:
        """The manifest's dataset sha256 (equal to the in-memory store's)."""
        return self._fingerprint

    def verify_fingerprint(self) -> str:
        """Recompute the fingerprint from the column files and check it.

        Streams every column in bounded chunks; raises
        :class:`~repro.exceptions.SchemaError` when the recomputed value
        disagrees with the manifest (bit rot or post-build edits).
        Returns the verified fingerprint.
        """
        actual = _fingerprint_columns(
            self._num_rows,
            [
                (name, self._support[name], self.column(name))
                for name in self._support
            ],
        )
        if actual != self._fingerprint:
            raise SchemaError(
                f"mmap store at {self._directory} fails verification:"
                f" manifest fingerprint {self._fingerprint[:12]}… but column"
                f" files hash to {actual[:12]}…"
            )
        return actual

    def disk_bytes(self) -> int:
        """Total bytes of the column files on disk (excludes the manifest)."""
        return sum(path.stat().st_size for path in self._files.values())


#: Capability token gating direct ``MmapStore(...)`` construction.
_OPEN_TOKEN = object()
