"""SWOPE: approximate top-k and filtering queries on empirical entropy
and mutual information.

A production-quality reproduction of Chen & Wang, *Efficient Approximate
Algorithms for Empirical Entropy and Mutual Information*, SIGMOD 2021.

Quickstart
----------
>>> from repro import encode_table, swope_top_k_entropy
>>> store, _ = encode_table({
...     "color": ["red", "blue", "red", "green"] * 1000,
...     "flag": [0, 0, 0, 1] * 1000,
... })
>>> result = swope_top_k_entropy(store, k=1, seed=7)
>>> result.attributes
['color']

Public API layers
-----------------
* the four SWOPE query functions (:func:`swope_top_k_entropy`,
  :func:`swope_filter_entropy`, :func:`swope_top_k_mutual_information`,
  :func:`swope_filter_mutual_information`), each a one-query run of
  :class:`PlanExecutor`, which also answers several queries over one
  shared scan;
* exact and adaptive-exact baselines under :mod:`repro.baselines`;
* the data substrate under :mod:`repro.data`;
* synthetic census-like datasets under :mod:`repro.synth`;
* the experiment harness (paper figures/tables) under
  :mod:`repro.experiments`;
* observability (trace events, sinks, metrics) under :mod:`repro.obs`.
"""

from repro.baselines import (
    entropy_filter,
    entropy_filter_mutual_information,
    entropy_rank_top_k,
    entropy_rank_top_k_mutual_information,
    exact_entropies,
    exact_entropy,
    exact_filter_entropy,
    exact_filter_mutual_information,
    exact_joint_entropy,
    exact_mutual_information,
    exact_mutual_informations,
    exact_top_k_entropy,
    exact_top_k_mutual_information,
)
from repro.core import (
    AttributeEstimate,
    CancellationToken,
    QueryBudget,
    PlanExecutor,
    ConfidenceInterval,
    FilterResult,
    GuaranteeStatus,
    MutualInformationInterval,
    RunStats,
    SampleSchedule,
    TopKResult,
    entropy_from_counts,
    swope_filter_entropy,
    swope_filter_mutual_information,
    swope_top_k_entropy,
    swope_top_k_mutual_information,
)
from repro.data import (
    CategoricalEncoder,
    ColumnSource,
    ColumnStore,
    MmapStore,
    MmapStoreWriter,
    PrefixSampler,
    drop_high_support_columns,
    encode_table,
    load_csv,
)
from repro.exceptions import (
    BudgetExceededError,
    DataFormatError,
    EncodingError,
    ParameterError,
    QueryCancelledError,
    QueryInterruptedError,
    ReproError,
    SchemaError,
)
from repro.dataset import Dataset
from repro.obs import (
    InMemorySink,
    JsonlSink,
    MetricsRegistry,
    NullSink,
    TraceSink,
)
from repro.synth import load_dataset

__version__ = "1.0.0"

__all__ = [
    "AttributeEstimate",
    "BudgetExceededError",
    "CancellationToken",
    "CategoricalEncoder",
    "ColumnSource",
    "ColumnStore",
    "ConfidenceInterval",
    "DataFormatError",
    "Dataset",
    "EncodingError",
    "FilterResult",
    "GuaranteeStatus",
    "InMemorySink",
    "JsonlSink",
    "MetricsRegistry",
    "MmapStore",
    "MmapStoreWriter",
    "MutualInformationInterval",
    "NullSink",
    "ParameterError",
    "PlanExecutor",
    "PrefixSampler",
    "QueryBudget",
    "QueryCancelledError",
    "QueryInterruptedError",
    "ReproError",
    "RunStats",
    "SampleSchedule",
    "SchemaError",
    "TopKResult",
    "TraceSink",
    "drop_high_support_columns",
    "encode_table",
    "entropy_filter",
    "entropy_filter_mutual_information",
    "entropy_from_counts",
    "entropy_rank_top_k",
    "entropy_rank_top_k_mutual_information",
    "exact_entropies",
    "exact_entropy",
    "exact_filter_entropy",
    "exact_filter_mutual_information",
    "exact_joint_entropy",
    "exact_mutual_information",
    "exact_mutual_informations",
    "exact_top_k_entropy",
    "exact_top_k_mutual_information",
    "load_csv",
    "load_dataset",
    "swope_filter_entropy",
    "swope_filter_mutual_information",
    "swope_top_k_entropy",
    "swope_top_k_mutual_information",
    "__version__",
]
