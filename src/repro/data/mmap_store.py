"""Memory-mapped, chunked on-disk column store (the out-of-core engine).

:class:`ColumnStore` holds every encoded column resident in memory, which
caps the reproduction at datasets that fit in RAM. This module provides
the second :class:`~repro.data.column_store.ColumnSource` implementation:
one ``.npy`` file per column, opened read-only through ``numpy``'s memmap
machinery, plus a schema-versioned JSON manifest written through
:func:`repro.durability.atomic.atomic_write_text`.

The design leans on the engine's one access pattern. The column files
hold the rows in the store's :class:`~repro.data.layout.SamplingLayout`
(one uniform shuffle, drawn at build time from a data-free layout
seed), so a run's sample is at most two contiguous slices of each file,
and slicing a :class:`numpy.memmap` touches only the pages the slice
lives on. So an ``N ≫ RAM`` dataset streams through the adaptive loop
with resident memory proportional to the *sample*, not the dataset;
convergence at ``M ≪ N`` (the paper's whole point) is what keeps the
working set small. Opening a store runs nothing ``N``-sized: the
layout's identity comes from the manifest.

On-disk layout of a store directory::

    manifest.json      {"format", "schema_version", "num_rows",
                        "fingerprint", "layout": {"seed", "bit_generator",
                        "state", "sha256"}, "columns": [{"name",
                        "support_size", "dtype", "file"}, ...]}
    col_00000.npy      encoded column 0 in layout order (smallest signed
                       int dtype that fits: int8 up to 128 values)
    col_00001.npy      ...

The manifest's ``fingerprint`` is byte-identical to
:meth:`ColumnStore.fingerprint` over the same encoded data: the logical
content in the rows' original order, hashed by the same helper in each
column's canonical width. So checkpoints and plan caches written against
the in-memory store verify against the mmap store and vice versa, and
both engines lay out ``N`` rows alike under one layout seed.

Construction is chunked for the same reason reads are:
:class:`MmapStoreWriter` accepts row chunks in their original order into
preallocated files, so a dataset can be built by a generator that never
holds more than one chunk in memory; :meth:`MmapStoreWriter.finalize`
then writes each column in layout order, chunk by chunk, which holds the
permutation (8 bytes a row) in memory. Column files are written to
hidden siblings and published by ``os.replace`` before the
manifest lands (itself atomic), so a crash mid-build never leaves a
directory that ``MmapStore.open`` would mistake for a complete store.
"""

from __future__ import annotations

import functools
import io
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
from repro.data.layout import SamplingLayout, validate_layout_seed
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
#: v2: column files hold the rows in the store's sampling layout, which
#: the manifest records as ``layout``. A v1 file is in build order, which
#: the sampler must never read as if it were shuffled.
MMAP_STORE_SCHEMA_VERSION = 2

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
    layout_seed:
        Seed of the store's sampling layout (``None``: the default
        seed). Stores of one ``N`` built with one layout seed, in memory
        or on disk, share one layout.

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
        *,
        layout_seed: int | None = None,
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
        self._layout_seed = validate_layout_seed(layout_seed)
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
            temp = final.with_name(f".{final.name}.rows-{os.getpid()}")
            # Rows land here in their original order. open_memmap writes
            # a valid .npy header up front; the data region fills lazily
            # as chunks land (sparse until then).
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
        """Lay the columns out, publish them, write the manifest, and open.

        The fingerprint hashes the rows in the order they were appended;
        each published column file holds them in layout order.
        """
        if self._finalized:
            raise ParameterError("writer is already finalized")
        if self._written != self._num_rows:
            raise ParameterError(
                f"store is incomplete: {self._written} of {self._num_rows}"
                " rows written"
            )
        fingerprint = _fingerprint_columns(
            self._num_rows,
            [
                (name, self._support[name], self._memmaps[name])
                for name in self._support
            ],
        )
        layout = SamplingLayout(self._num_rows, self._layout_seed)
        perm = layout.permutation()
        columns_payload = []
        for name in self._support:
            rows = self._memmaps.pop(name)
            source = Path(getattr(rows, "filename", ""))
            final = self._files[name]
            temp = final.with_name(f".{final.name}.tmp-{os.getpid()}")
            laid_out = np.lib.format.open_memmap(
                temp, mode="w+", dtype=rows.dtype, shape=(self._num_rows,)
            )
            for block in _iter_chunks(self._num_rows):
                laid_out[block] = rows[perm[block]]
            laid_out.flush()
            dtype_str = laid_out.dtype.str
            # Drop our references before publishing so the maps close.
            del laid_out, rows
            os.replace(temp, final)
            source.unlink()
            columns_payload.append(
                {
                    "name": name,
                    "support_size": self._support[name],
                    "dtype": dtype_str,
                    "file": final.name,
                }
            )
        manifest = {
            "format": MMAP_STORE_FORMAT,
            "schema_version": MMAP_STORE_SCHEMA_VERSION,
            "num_rows": self._num_rows,
            "fingerprint": fingerprint,
            "layout": {**layout.recipe(), "sha256": layout.sha256},
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
    :meth:`column` hands out the cached read-only memmap, in layout
    order — the counting backend reads contiguous slices of it,
    touching only the pages the sample lives on.
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
        self._num_rows = _manifest_int(manifest["num_rows"], "num_rows", 0)
        self._fingerprint = _manifest_str(manifest["fingerprint"], "fingerprint")
        recorded = manifest["layout"]
        if not isinstance(recorded, dict):
            raise SchemaError(f"manifest layout must be an object, got {recorded!r}")
        try:
            self._layout = SamplingLayout(
                self._num_rows,
                _manifest_int(recorded.get("seed"), "layout seed", 0),
                sha256=_manifest_str(recorded.get("sha256"), "layout sha256"),
            )
        except ParameterError as exc:
            raise SchemaError(f"manifest layout is invalid: {exc}") from exc
        self._support: dict[str, int] = {}
        self._dtypes: dict[str, np.dtype] = {}
        # plain strings: a Path per column costs more than its checks
        # (16 columns: 75 us of pathlib, 33 us of os.path)
        self._files: dict[str, str] = {}
        self._columns: dict[str, np.ndarray] = {}
        root = os.fspath(directory)
        columns = manifest["columns"]
        if not isinstance(columns, list):
            raise SchemaError(f"manifest columns must be a list, got {columns!r}")
        for entry in columns:
            if not isinstance(entry, dict):
                raise SchemaError(f"manifest column must be an object, got {entry!r}")
            name = _manifest_str(entry.get("name"), "column name")
            if name in self._support:
                raise SchemaError(f"manifest declares column {name!r} twice")
            support = _manifest_int(entry.get("support_size"), "support", 1, name)
            dtype = _manifest_dtype(entry.get("dtype"), name, support)
            path = os.path.join(root, _manifest_str(entry.get("file"), "file", name))
            self._support[name] = support
            self._dtypes[name] = dtype
            self._files[name] = path
            self._check_column_file(name)

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
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
                f" (this build reads version {MMAP_STORE_SCHEMA_VERSION}, whose"
                " column files hold the rows in a shuffled sampling layout);"
                " rebuild the store with `repro store build` or"
                " MmapStore.from_column_store"
            )
        for key in ("num_rows", "fingerprint", "layout", "columns"):
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
        layout_seed: int | None = None,
    ) -> "MmapStore":
        """Materialise an in-memory store on disk (chunked copy).

        The files are written in the layout of ``layout_seed``, which
        is the layout ``store`` itself samples in under that seed.
        """
        if chunk_rows < 1:
            raise ParameterError(f"chunk_rows must be >= 1, got {chunk_rows}")
        writer = MmapStoreWriter(
            directory, store.support_sizes(), store.num_rows,
            layout_seed=layout_seed,
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
    def _check_column_file(self, name: str) -> None:
        """Refuse a column file that is missing or disagrees with the manifest.

        Opening a store reads nothing ``N``-sized: a file of exactly the
        size numpy writes for ``num_rows`` values of the declared dtype
        costs one ``stat``, and :meth:`column` checks its header when it
        first maps it. A file of any other size is mapped now, so a bad
        shape, dtype or length is refused at open.
        """
        path = self._files[name]
        try:
            size = os.stat(path).st_size
        except (OSError, ValueError):
            raise SchemaError(
                f"mmap store at {self._directory} is missing column file"
                f" {os.path.basename(path)!r} (declared for attribute {name!r})"
            ) from None
        dtype = self._dtypes[name]
        expected = _npy_data_offset(dtype.str, self._num_rows)
        if size != expected + self._num_rows * dtype.itemsize:
            self.column(name)

    def column(self, name: str) -> np.ndarray:
        """Read-only memmap handle of ``name`` in layout order (opened lazily)."""
        handle = self._columns.get(name)
        if handle is not None:
            return handle
        if name not in self._support:
            raise SchemaError(f"unknown attribute {name!r}")
        try:
            loaded = np.load(self._files[name], mmap_mode="r")
        except (OSError, ValueError, EOFError) as exc:  # e.g. a truncated file
            raise SchemaError(
                f"column file for {name!r} is unreadable: {exc}"
            ) from exc
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

    def sampling_layout(self, layout_seed: int | None = None) -> SamplingLayout:
        """The layout the column files were written in (from the manifest).

        ``layout_seed`` must be ``None`` or the seed the store was built
        with: another layout would need another build.
        """
        if layout_seed is not None and (
            validate_layout_seed(layout_seed) != self._layout.seed
        ):
            raise ParameterError(
                f"mmap store at {self._directory} is laid out with layout seed"
                f" {self._layout.seed}, not {layout_seed}; build another store"
                f" with layout_seed={layout_seed} to sample in that layout"
            )
        return self._layout

    def layout_column(
        self, name: str, start: int, stop: int, layout_seed: int | None = None
    ) -> np.ndarray:
        """The memmap of ``name``: the files are in layout order already."""
        self.sampling_layout(layout_seed)
        return self.column(name)

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
        """Exact occurrence counts of ``name``, streamed in bounded chunks.

        ``num_rows`` counts a prefix of the files, which are in layout
        order.
        """
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

        Redraws the layout (checked against the manifest's sha256) and
        streams every column back into its original row order in bounded
        chunks; raises :class:`~repro.exceptions.SchemaError` when the
        recomputed value disagrees with the manifest (bit rot or
        post-build edits). Returns the verified fingerprint.
        """
        try:
            perm = self._layout.permutation()
        except ParameterError as exc:
            raise SchemaError(f"mmap store at {self._directory}: {exc}") from exc
        order = np.empty_like(perm)
        order[perm] = np.arange(self._num_rows)
        actual = _fingerprint_columns(
            self._num_rows,
            [
                (name, self._support[name], self.column(name))
                for name in self._support
            ],
            order,
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
        return sum(os.stat(path).st_size for path in self._files.values())


#: Capability token gating direct ``MmapStore(...)`` construction.
_OPEN_TOKEN = object()


def _field(what: str, column: str | None) -> str:
    return what if column is None else f"column {column!r} {what}"


def _manifest_int(
    value: Any, what: str, minimum: int, column: str | None = None
) -> int:
    """A manifest field that must be an integer ``>= minimum``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise SchemaError(
            f"manifest {_field(what, column)} must be an integer >= {minimum},"
            f" got {value!r}"
        )
    return value


def _manifest_str(value: Any, what: str, column: str | None = None) -> str:
    """A manifest field that must be a string."""
    if not isinstance(value, str):
        raise SchemaError(
            f"manifest {_field(what, column)} must be a string, got {value!r}"
        )
    return value


def _manifest_dtype(value: Any, column: str, support: int) -> np.dtype:
    """A column's declared dtype: a signed integer type holding its support."""
    try:
        dtype = np.dtype(_manifest_str(value, "dtype", column))
    except (TypeError, ValueError, SyntaxError) as exc:
        raise SchemaError(
            f"manifest {_field('dtype', column)} {value!r} is unknown"
        ) from exc
    if dtype.kind != "i" or support > 1 << (8 * dtype.itemsize - 1):
        raise SchemaError(
            f"manifest {_field('dtype', column)} {value!r} cannot hold"
            f" {support} values"
        )
    return dtype


@functools.lru_cache(maxsize=16)
def _npy_data_offset(descr: str, num_rows: int) -> int:
    """Where numpy writes the data of a 1-D ``.npy`` array of ``num_rows``."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": descr, "fortran_order": False, "shape": (num_rows,)}
    )
    return header.tell()
