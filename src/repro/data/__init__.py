"""Data substrate: columnar storage, encoding, IO, and prefix sampling.

This subpackage is everything below the algorithms: how a dataset is held
in memory (:class:`~repro.data.column_store.ColumnStore`) or streamed
from disk (:class:`~repro.data.mmap_store.MmapStore`) behind the common
:class:`~repro.data.column_store.ColumnSource` protocol, how raw values
become dense codes (:mod:`repro.data.encoding`), how files are read and
cached (:mod:`repro.data.csv_io`), the paper's column pre-filters
(:mod:`repro.data.filters`), the sampling-without-replacement substrate
with incremental marginal/joint counters (:mod:`repro.data.sampling`,
:mod:`repro.data.joint`), and the counting backend
(:mod:`repro.data.backends`).
"""

from repro.data.backends import CountingBackend, NumpyBackend, resolve_backend
from repro.data.column_store import ColumnSource, ColumnStore
from repro.data.csv_io import load_csv, load_npz, save_npz
from repro.data.describe import AttributeProfile, describe_store, profile_attribute
from repro.data.encoding import CategoricalEncoder, encode_column, encode_table
from repro.data.filters import (
    PAPER_MAX_SUPPORT,
    drop_constant_columns,
    drop_high_support_columns,
)
from repro.data.joint import JointCounter
from repro.data.mmap_store import MmapStore, MmapStoreWriter
from repro.data.sampling import PrefixSampler

__all__ = [
    "AttributeProfile",
    "ColumnSource",
    "ColumnStore",
    "CategoricalEncoder",
    "CountingBackend",
    "JointCounter",
    "MmapStore",
    "MmapStoreWriter",
    "NumpyBackend",
    "PrefixSampler",
    "PAPER_MAX_SUPPORT",
    "describe_store",
    "drop_constant_columns",
    "drop_high_support_columns",
    "encode_column",
    "encode_table",
    "load_csv",
    "load_npz",
    "profile_attribute",
    "resolve_backend",
    "save_npz",
]
