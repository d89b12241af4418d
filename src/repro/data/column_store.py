"""Columnar dataset container used by every algorithm in this package.

The paper (Section 2.1) assumes the input dataset :math:`\\mathcal{D}` has
``N`` records and ``h`` categorical attributes whose values fall into the
dense integer range ``[1, u_alpha]`` after a one-to-one preprocessing match.
:class:`ColumnStore` is that preprocessed representation: one NumPy integer
array per attribute, values in ``[0, u_alpha)`` (zero-based; the shift is
immaterial to every count-based formula), plus the per-attribute support
size ``u_alpha``.

The store is deliberately immutable after construction: the sampling layer
(:mod:`repro.data.sampling`) hands out views of these arrays, and mutating a
column under a live sampler would silently corrupt incremental counters.

The sampler never reads the logical columns. It reads their copies in a
:class:`~repro.data.layout.SamplingLayout` (one uniform shuffle of the
rows, drawn once from a data-free layout seed), which the store memoises
in chunks of ``_LAYOUT_CHUNK_ROWS`` rows as reads first touch them.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Protocol, runtime_checkable

import numpy as np

from repro.data.layout import SamplingLayout, validate_layout_seed
from repro.exceptions import SchemaError

__all__ = ["ColumnSource", "ColumnStore"]

#: Integer dtypes accepted for encoded columns.
_INTEGER_KINDS = ("i", "u")


#: Rows hashed / counted per chunk when streaming a column, which may be
#: a memmap (4 Mi rows ⇒ at most 32 MiB per chunk at the widest dtype).
_CHUNK_ROWS = 1 << 22


#: Rows of a layout-ordered column copied per chunk on first touch, so a
#: plan that samples a small prefix gathers only the chunks it reads.
_LAYOUT_CHUNK_ROWS = 1 << 12

#: Layouts a store keeps memoised (least recently used evicted first):
#: the default one and one other, such as an audit's.
_MAX_LAYOUTS = 2


def _iter_chunks(length: int, chunk_rows: int = _CHUNK_ROWS) -> Iterator[slice]:
    """Yield ``[lo, hi)`` slices covering ``range(length)`` in chunks."""
    for lo in range(0, length, chunk_rows):
        yield slice(lo, min(lo + chunk_rows, length))


def _pick_dtype(support_size: int) -> np.dtype:
    """Return the smallest signed integer dtype that holds ``[0, support_size)``.

    Signed, because joint codes are built by adding a store column to an
    int64 product in place (:meth:`~repro.data.joint.JointCounter._codes`).
    """
    if support_size <= np.iinfo(np.int8).max + 1:
        return np.dtype(np.int8)
    if support_size <= np.iinfo(np.int16).max:
        return np.dtype(np.int16)
    if support_size <= np.iinfo(np.int32).max:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def _fingerprint_columns(
    num_rows: int,
    entries: Iterable[tuple[str, int, np.ndarray]],
    order: np.ndarray | None = None,
) -> str:
    """sha256 over ``(rows, names, supports, column bytes)``, streamed.

    The one fingerprint function of both storage engines. Each column is
    hashed in its *canonical width*, :func:`_pick_dtype` floored at
    int16, whatever width it is stored in: a store written as int16
    before int8 storage existed and its int8 rebuild hash alike, and so
    do in-memory and memory-mapped copies. The column may be a memmap,
    so its bytes go through the digest in bounded chunks. With
    ``order``, logical row ``i`` is ``column[order[i]]`` (a column held
    in layout order hashes as its logical content).
    """
    digest = hashlib.sha256()
    digest.update(f"rows:{num_rows}\n".encode("utf-8"))
    for name, support, column in entries:
        canonical = np.promote_types(_pick_dtype(support), np.int16)
        digest.update(f"col:{name}:{support}:{canonical.str}\n".encode("utf-8"))
        for block in _iter_chunks(num_rows):
            rows = block if order is None else order[block]
            digest.update(np.ascontiguousarray(column[rows], dtype=canonical))
    return digest.hexdigest()


class _LayoutMemo:
    """A :class:`SamplingLayout` and the layout-ordered column copies."""

    def __init__(self, layout: SamplingLayout) -> None:
        self.layout = layout
        # name -> (layout-ordered copy, 1 per chunk not yet filled);
        # the flags are empty once every chunk is filled
        self.columns: dict[str, tuple[np.ndarray, bytearray]] = {}

    def column(
        self, name: str, store: "ColumnStore", start: int, stop: int
    ) -> np.ndarray:
        """``name`` in layout order, with positions ``[start, stop)`` filled."""
        entry = self.columns.get(name)
        if entry is None:
            logical = store.column(name)
            copy = np.empty_like(logical)
            copy.setflags(write=False)
            chunks = -(-logical.shape[0] // _LAYOUT_CHUNK_ROWS)
            entry = self.columns[name] = (copy, bytearray(b"\x01" * chunks))
        copy, unfilled = entry
        first = start // _LAYOUT_CHUNK_ROWS
        last = -(-stop // _LAYOUT_CHUNK_ROWS)
        if 1 in unfilled[first:last]:
            perm = self.layout.permutation()
            logical = store.column(name)
            # Writable only while chunks land, so readers never see a
            # writable handle.
            copy.setflags(write=True)
            chunk = first
            while chunk < last:  # one gather per run of unfilled chunks
                if not unfilled[chunk]:
                    chunk += 1
                    continue
                end = chunk
                while end < last and unfilled[end]:
                    end += 1
                rows = slice(chunk * _LAYOUT_CHUNK_ROWS, end * _LAYOUT_CHUNK_ROWS)
                copy[rows] = logical[perm[rows]]
                unfilled[chunk:end] = bytes(end - chunk)
                chunk = end
            copy.setflags(write=False)
            if 1 not in unfilled:
                self.columns[name] = (copy, bytearray())  # complete
        return copy


@runtime_checkable
class ColumnSource(Protocol):
    """Read-side protocol every storage engine implements.

    The sampling substrate (and everything above it) touches a dataset
    through exactly this surface: shape metadata, support sizes, column
    *handles*, and the store's sampling layout with its layout-ordered
    column handles (:meth:`sampling_layout`, :meth:`layout_column`),
    which the sampler reads in contiguous slices. Two implementations
    ship with the package:

    * :class:`ColumnStore` — every column fully resident in memory;
    * :class:`~repro.data.mmap_store.MmapStore` — ``.npy``-backed
      memory-mapped columns, so ``N ≫ RAM`` datasets stream through the
      engine with only the touched pages resident.

    :meth:`column` returns an *array-like handle* in the store's physical
    row order — logical order for :class:`ColumnStore`, layout order for
    an mmap store, whose files are written that way. Order-free readers
    (exact counts, and joint counts of two columns of one store) may use
    either. For a memory-mapped store it is a :class:`numpy.memmap`, and
    materialising it in full
    defeats the storage engine. Code outside :mod:`repro.data` and
    :mod:`repro.baselines` must read through :meth:`column_block`
    (``tests/test_source_invariants``); the counting backend indexes the
    handle with a block selector, which touches only the selected pages.
    """

    @property
    def num_rows(self) -> int:
        """Number of records ``N`` in the dataset."""
        ...

    @property
    def num_attributes(self) -> int:
        """Number of attributes ``h`` in the dataset."""
        ...

    @property
    def attributes(self) -> tuple[str, ...]:
        """Attribute names in schema order."""
        ...

    def __contains__(self, name: object) -> bool: ...

    def column(self, name: str) -> np.ndarray:
        """Read-only array-like handle of the encoded column (may be mmap)."""
        ...

    def column_block(self, name: str, rows: np.ndarray | slice) -> np.ndarray:
        """Materialised block ``column(name)[rows]`` in physical row order."""
        ...

    def support_size(self, name: str) -> int:
        """``u_alpha``, the declared number of distinct values of ``name``."""
        ...

    def support_sizes(self) -> dict[str, int]:
        """Fresh ``{attribute: u_alpha}`` mapping for all attributes."""
        ...

    def max_support_size(self) -> int:
        """``u_max``, the largest support size over all attributes."""
        ...

    def value_counts(self, name: str, num_rows: int | None = None) -> np.ndarray:
        """Exact occurrence counts of ``name`` over the (prefix of the) data."""
        ...

    def fingerprint(self) -> str:
        """sha256 identity over rows, names, supports, and column bytes.

        The logical content hash, in the rows' original order. Two
        sources with equal fingerprints and equal sampling layouts
        produce identical counters for every run — the property
        checkpoints and plan caches key on. In-memory and mmap stores
        of the same encoded data return the *same* value.
        """
        ...

    def sampling_layout(self, layout_seed: int | None = None) -> SamplingLayout:
        """The layout the sampler reads in (``None``: the store's default)."""
        ...

    def layout_column(
        self, name: str, start: int, stop: int, layout_seed: int | None = None
    ) -> np.ndarray:
        """Handle of ``name`` in layout order; positions ``[start, stop)`` readable."""
        ...


class ColumnStore:
    """Immutable columnar dataset of dense-encoded categorical attributes.

    Parameters
    ----------
    columns:
        Mapping from attribute name to a 1-D integer array of encoded
        values. All arrays must have the same length and contain values in
        ``[0, support_size)`` for that attribute.
    support_sizes:
        Optional mapping from attribute name to the support size
        ``u_alpha``. When omitted, the support size of each column is
        inferred as ``max(column) + 1`` (``1`` for an empty dataset). Pass
        it explicitly when a value of the domain may be absent from the
        data but should still count toward ``u_alpha``.

    Raises
    ------
    SchemaError
        If columns disagree on length, a column is not 1-D integral, a
        value is negative or at least the declared support size, or the
        store would have no columns.

    Examples
    --------
    >>> import numpy as np
    >>> store = ColumnStore({"a": np.array([0, 1, 1, 2]), "b": np.array([0, 0, 1, 0])})
    >>> store.num_rows, store.num_attributes
    (4, 2)
    >>> store.support_size("a")
    3
    """

    def __init__(
        self,
        columns: Mapping[str, np.ndarray],
        support_sizes: Mapping[str, int] | None = None,
    ) -> None:
        if not columns:
            raise SchemaError("a ColumnStore requires at least one column")
        self._columns: dict[str, np.ndarray] = {}
        self._support: dict[str, int] = {}
        num_rows: int | None = None
        for name, raw in columns.items():
            arr = np.asarray(raw)
            if arr.ndim != 1:
                raise SchemaError(f"column {name!r} must be 1-D, got shape {arr.shape}")
            if arr.dtype.kind not in _INTEGER_KINDS:
                raise SchemaError(
                    f"column {name!r} must be an integer array, got dtype {arr.dtype};"
                    " encode raw values first (see repro.data.encoding)"
                )
            if num_rows is None:
                num_rows = arr.shape[0]
            elif arr.shape[0] != num_rows:
                raise SchemaError(
                    f"column {name!r} has {arr.shape[0]} rows, expected {num_rows}"
                )
            observed_max = int(arr.max(initial=-1))
            observed_min = int(arr.min(initial=0))
            if observed_min < 0:
                raise SchemaError(f"column {name!r} contains negative codes")
            if support_sizes is not None and name in support_sizes:
                u = int(support_sizes[name])
                if u < 1:
                    raise SchemaError(f"support size of {name!r} must be >= 1, got {u}")
                if observed_max >= u:
                    raise SchemaError(
                        f"column {name!r} contains code {observed_max} but declares"
                        f" support size {u}"
                    )
            else:
                u = observed_max + 1 if observed_max >= 0 else 1
            arr = np.ascontiguousarray(arr, dtype=_pick_dtype(u))
            arr.setflags(write=False)
            self._columns[name] = arr
            self._support[name] = u
        assert num_rows is not None
        self._num_rows = num_rows
        self._fingerprint: str | None = None
        self._layouts: dict[int, _LayoutMemo] = {}

    @classmethod
    def _from_trusted_parts(
        cls,
        columns: dict[str, np.ndarray],
        support_sizes: dict[str, int],
        num_rows: int,
    ) -> "ColumnStore":
        """Assemble a store from parts that already satisfy the invariants.

        The derived-store fast path: ``select``/``head``/``take`` of a
        validated store cannot produce out-of-range codes or ragged
        columns, so re-running ``__init__``'s O(cells) validation would
        only burn time. Callers must hand over read-only integer arrays
        of length ``num_rows`` with codes in ``[0, support)``.
        """
        store = cls.__new__(cls)
        store._columns = columns
        store._support = support_sizes
        store._num_rows = num_rows
        store._fingerprint = None
        store._layouts = {}
        return store

    # ------------------------------------------------------------------
    # Basic shape accessors
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of records ``N`` in the dataset."""
        return self._num_rows

    @property
    def num_attributes(self) -> int:
        """Number of attributes ``h`` in the dataset."""
        return len(self._columns)

    @property
    def attributes(self) -> tuple[str, ...]:
        """Attribute names in insertion order."""
        return tuple(self._columns)

    def __contains__(self, name: object) -> bool:
        return name in self._columns

    def __len__(self) -> int:
        return self._num_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnStore(num_rows={self._num_rows},"
            f" num_attributes={self.num_attributes})"
        )

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """Return the (read-only) encoded value array of attribute ``name``."""
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(f"unknown attribute {name!r}") from None

    def column_block(self, name: str, rows: np.ndarray | slice) -> np.ndarray:
        """Return the encoded values of ``name`` at ``rows`` (gather or slice).

        The block-read form of :meth:`column`: the access pattern of row
        subsets (decision-tree nodes, for example), and the only one
        that stays cheap on every storage
        engine. Code outside :mod:`repro.data` / :mod:`repro.baselines`
        must use this, not whole columns (``test_source_invariants``).
        """
        return self.column(name)[rows]

    def sampling_layout(self, layout_seed: int | None = None) -> SamplingLayout:
        """The :class:`SamplingLayout` of ``layout_seed``, memoised on the store.

        Any seed is accepted: the layout depends only on the seed and
        ``N``. Nothing ``N``-sized runs here; the permutation is drawn
        when a layout-ordered column or the layout's sha256 is first
        needed. The store keeps the ``_MAX_LAYOUTS`` layouts used last.
        """
        seed = validate_layout_seed(layout_seed)
        memo = self._layouts.pop(seed, None)
        if memo is None:
            memo = _LayoutMemo(SamplingLayout(self._num_rows, seed))
            while len(self._layouts) >= _MAX_LAYOUTS:
                # evict the least recently used layout and its copies
                del self._layouts[next(iter(self._layouts))]
        self._layouts[seed] = memo
        return memo.layout

    def layout_column(
        self, name: str, start: int, stop: int, layout_seed: int | None = None
    ) -> np.ndarray:
        """``name`` in layout order, with positions ``[start, stop)`` filled.

        The copy is memoised per layout and filled in chunks of
        ``_LAYOUT_CHUNK_ROWS`` rows the first time a read touches them;
        positions outside ``[start, stop)`` may be unfilled.
        """
        memo = None if layout_seed is None else self._layouts.get(layout_seed)
        if memo is None:
            seed = validate_layout_seed(layout_seed)
            self.sampling_layout(seed)
            memo = self._layouts[seed]
        entry = memo.columns.get(name)
        if entry is not None and not entry[1]:  # the hot path: complete
            return entry[0]
        return memo.column(name, self, start, stop)

    def support_size(self, name: str) -> int:
        """Return ``u_alpha``, the number of distinct values of ``name``."""
        try:
            return self._support[name]
        except KeyError:
            raise SchemaError(f"unknown attribute {name!r}") from None

    def support_sizes(self) -> dict[str, int]:
        """Return a fresh ``{attribute: u_alpha}`` mapping for all attributes."""
        return dict(self._support)

    def max_support_size(self) -> int:
        """Return ``u_max``, the largest support size over all attributes."""
        return max(self._support.values())

    # ------------------------------------------------------------------
    # Derived stores
    # ------------------------------------------------------------------
    def select(self, names: Iterable[str]) -> "ColumnStore":
        """Return a new store restricted to ``names`` (order preserved).

        The underlying arrays are shared, not copied.
        """
        names = list(names)
        missing = [n for n in names if n not in self._columns]
        if missing:
            raise SchemaError(f"unknown attributes: {missing}")
        if not names:
            raise SchemaError("a ColumnStore requires at least one column")
        selected = ColumnStore._from_trusted_parts(
            {n: self._columns[n] for n in names},
            {n: self._support[n] for n in names},
            self._num_rows,
        )
        # Same rows, same arrays: the layout copies stay valid.
        selected._layouts = self._layouts
        return selected

    def drop(self, names: Iterable[str]) -> "ColumnStore":
        """Return a new store without the attributes in ``names``."""
        dropped = set(names)
        missing = [n for n in dropped if n not in self._columns]
        if missing:
            raise SchemaError(f"unknown attributes: {missing}")
        kept = [n for n in self._columns if n not in dropped]
        if not kept:
            raise SchemaError("dropping these attributes would leave an empty store")
        return self.select(kept)

    def head(self, num_rows: int) -> "ColumnStore":
        """Return a new store containing the first ``num_rows`` records.

        Support sizes are preserved from the parent store (the domain does
        not shrink just because a prefix is taken).
        """
        if num_rows < 1:
            raise SchemaError(f"head() requires num_rows >= 1, got {num_rows}")
        num_rows = min(num_rows, self._num_rows)
        # Slices are views of the read-only parents: O(columns), no copy.
        return ColumnStore._from_trusted_parts(
            {n: col[:num_rows] for n, col in self._columns.items()},
            dict(self._support),
            num_rows,
        )

    def take(self, row_indices: Sequence[int] | np.ndarray) -> "ColumnStore":
        """Return a new store containing the given rows, in the given order."""
        idx = np.asarray(row_indices)
        if idx.ndim != 1:
            raise SchemaError("row_indices must be 1-D")
        taken: dict[str, np.ndarray] = {}
        num_rows = 0
        for n, col in self._columns.items():
            rows = col[idx]
            rows.setflags(write=False)
            taken[n] = rows
            # gathered length, not len(idx): a boolean mask selects fewer.
            num_rows = rows.shape[0]
        return ColumnStore._from_trusted_parts(taken, dict(self._support), num_rows)

    # ------------------------------------------------------------------
    # Counting (the only data access pattern the algorithms need)
    # ------------------------------------------------------------------
    def value_counts(self, name: str, num_rows: int | None = None) -> np.ndarray:
        """Return occurrence counts ``n_i`` of attribute ``name``.

        Parameters
        ----------
        name:
            Attribute to count.
        num_rows:
            When given, only the first ``num_rows`` records are counted;
            otherwise all records.

        Returns
        -------
        numpy.ndarray
            Length-``u_alpha`` int64 array with ``counts[i]`` = number of
            records whose encoded value equals ``i``.
        """
        col = self.column(name)
        if num_rows is not None:
            col = col[:num_rows]
        return np.bincount(col, minlength=self.support_size(name)).astype(np.int64)

    def memory_bytes(self) -> int:
        """Return the total bytes held by the encoded column arrays."""
        return sum(col.nbytes for col in self._columns.values())

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """sha256 identity: rows, names, supports, and raw column bytes.

        The dataset identity checkpoints and plan caches key on (see
        :func:`repro.durability.checkpoint.store_fingerprint`, which
        delegates here). The byte layout is pinned by golden census
        manifests: ``rows:{N}\\n`` then, per attribute in schema order,
        ``col:{name}:{support}:{dtype.str}\\n`` followed by the raw
        little-endian column bytes, where ``dtype`` is the column's
        canonical width (the storage dtype floored at int16, so an int8
        column still hashes as ``<i2``). :class:`~repro.data.mmap_store.MmapStore`
        computes the identical value over its on-disk columns through the
        same helper, so the two engines interoperate under one
        fingerprint. The store and its columns are immutable, so the hash
        is computed once per store.
        """
        if self._fingerprint is None:
            self._fingerprint = _fingerprint_columns(
                self._num_rows,
                [(n, self._support[n], col) for n, col in self._columns.items()],
            )
        return self._fingerprint

