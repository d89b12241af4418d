"""High-level :class:`Dataset` facade: raw values in, decoded answers out.

The layered API (`ColumnStore` + `CategoricalEncoder` + query functions)
is what the experiments drive; downstream users mostly want one object
that remembers the encoding and answers queries in terms of their raw
values. :class:`Dataset` is that object:

>>> from repro.dataset import Dataset
>>> ds = Dataset.from_table({"color": ["red", "blue", "red"],
...                          "size": ["S", "M", "L"]})
>>> ds.top_k_entropy(1).attributes
['size']
>>> ds.value_distribution("color")
{'red': 2, 'blue': 1}

Every query method simply forwards to the corresponding
:mod:`repro.core` / :mod:`repro.baselines` function over the internal
store, so all guarantees and parameters carry over unchanged.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from pathlib import Path

import numpy as np

from repro.baselines.exact import exact_entropies, exact_mutual_informations
from repro.core.results import FilterResult, TopKResult
from repro.core.swope import (
    swope_filter_entropy,
    swope_filter_mutual_information,
    swope_top_k_entropy,
    swope_top_k_mutual_information,
)
from repro.data.column_store import ColumnStore
from repro.data.csv_io import load_csv
from repro.data.encoding import CategoricalEncoder
from repro.data.filters import PAPER_MAX_SUPPORT, drop_high_support_columns
from repro.exceptions import SchemaError

__all__ = ["Dataset"]


class Dataset:
    """An encoded dataset plus its encoder, with query conveniences.

    Construct via :meth:`from_table` (in-memory columns of raw values) or
    :meth:`from_csv` (a headered file); or wrap an existing store with
    ``Dataset(store, encoder)``.
    """

    def __init__(
        self, store: ColumnStore, encoder: CategoricalEncoder | None = None
    ) -> None:
        self._store = store
        self._encoder = encoder

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_table(
        cls, table: Mapping[str, Sequence[object] | np.ndarray]
    ) -> "Dataset":
        """Encode an in-memory mapping of raw-value columns."""
        encoder = CategoricalEncoder()
        store = encoder.fit_transform(table)
        return cls(store, encoder)

    @classmethod
    def from_csv(
        cls,
        path: str | Path,
        *,
        delimiter: str = ",",
        max_rows: int | None = None,
        usecols: list[str] | None = None,
    ) -> "Dataset":
        """Load and encode a headered CSV file."""
        store, encoder = load_csv(
            path, delimiter=delimiter, max_rows=max_rows, usecols=usecols
        )
        return cls(store, encoder)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def store(self) -> ColumnStore:
        """The underlying encoded store (for the low-level APIs)."""
        return self._store

    @property
    def encoder(self) -> CategoricalEncoder | None:
        """The encoder, if this dataset was built from raw values."""
        return self._encoder

    @property
    def num_rows(self) -> int:
        return self._store.num_rows

    @property
    def attributes(self) -> tuple[str, ...]:
        return self._store.attributes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dataset({self._store.num_rows:,} rows x"
            f" {self._store.num_attributes} attributes)"
        )

    def value_distribution(self, attribute: str) -> dict[object, int]:
        """Occurrence counts of ``attribute`` keyed by *raw* value.

        Falls back to integer codes when no encoder is attached.
        """
        counts = self._store.value_counts(attribute)
        out: dict[object, int] = {}
        for code, count in enumerate(counts.tolist()):
            if count == 0:
                continue
            key: object = code
            if self._encoder is not None and attribute in self._encoder.vocabularies:
                key = self._encoder.decode_value(attribute, code)
            out[key] = count
        return out

    # ------------------------------------------------------------------
    # Preprocessing
    # ------------------------------------------------------------------
    def without_high_support(
        self, max_support: int = PAPER_MAX_SUPPORT
    ) -> "Dataset":
        """Apply the paper's support-size preprocessing (drop u > 1000)."""
        return Dataset(
            drop_high_support_columns(self._store, max_support), self._encoder
        )

    # ------------------------------------------------------------------
    # Exact scores
    # ------------------------------------------------------------------
    def entropies(self) -> dict[str, float]:
        """Exact empirical entropies of every attribute (full scan)."""
        return exact_entropies(self._store)

    def mutual_informations(self, target: str) -> dict[str, float]:
        """Exact MI of every other attribute against ``target``."""
        return exact_mutual_informations(self._store, target)

    # ------------------------------------------------------------------
    # SWOPE queries (guarantees per Definitions 5-6)
    # ------------------------------------------------------------------
    def top_k_entropy(self, k: int, **kwargs) -> TopKResult:
        """Approximate entropy top-k (Algorithm 1). Keywords forward to
        :func:`repro.core.swope.swope_top_k_entropy`."""
        return swope_top_k_entropy(self._store, k, **kwargs)

    def filter_entropy(self, threshold: float, **kwargs) -> FilterResult:
        """Approximate entropy filtering (Algorithm 2)."""
        return swope_filter_entropy(self._store, threshold, **kwargs)

    def top_k_mutual_information(
        self, target: str, k: int, **kwargs
    ) -> TopKResult:
        """Approximate MI top-k against ``target`` (Algorithm 3)."""
        return swope_top_k_mutual_information(self._store, target, k, **kwargs)

    def filter_mutual_information(
        self, target: str, threshold: float, **kwargs
    ) -> FilterResult:
        """Approximate MI filtering against ``target`` (Algorithm 4)."""
        return swope_filter_mutual_information(
            self._store, target, threshold, **kwargs
        )

    # ------------------------------------------------------------------
    # Decoding helpers
    # ------------------------------------------------------------------
    def decode(self, attribute: str, codes: Sequence[int]) -> list[object]:
        """Translate integer codes of ``attribute`` back to raw values."""
        if self._encoder is None:
            raise SchemaError(
                "this Dataset wraps a pre-encoded store with no encoder;"
                " decode() is unavailable"
            )
        return self._encoder.decode(attribute, codes)
