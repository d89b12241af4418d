"""Exception hierarchy for the :mod:`repro` package.

All errors raised intentionally by this library derive from
:class:`ReproError`, so callers can catch one type at an API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class SchemaError(ReproError):
    """A dataset schema is inconsistent or an attribute is unknown.

    Raised, for example, when two columns of different lengths are combined
    into a :class:`~repro.data.column_store.ColumnStore`, or when a query
    names an attribute that does not exist.
    """


class EncodingError(ReproError):
    """A column could not be encoded into the dense ``[0, u)`` integer range."""


class ParameterError(ReproError):
    """A query or generator parameter is outside its documented domain.

    Examples: ``epsilon`` outside ``(0, 1)``, ``k < 1``, a negative
    threshold, or a failure probability outside ``(0, 1)``.
    """


class DataFormatError(ReproError):
    """An input file (CSV or cached ``.npz``) could not be parsed."""


class PlanError(ParameterError):
    """A query plan's specs are structurally invalid.

    Raised by :func:`repro.core.plan.plan_queries` (and by
    :class:`~repro.core.plan.QuerySpec` construction) for plan-level
    problems caught *before* any sampling happens: duplicate specs or
    names, conflicting spec fields (a top-k spec carrying a threshold),
    a filter threshold that is not strictly positive, or an MI spec
    whose target is also a candidate. Derives from
    :class:`ParameterError` so callers written against the single-query
    API can keep catching one type.
    """


class ResultConsistencyError(ReproError, ValueError):
    """A result object was constructed with inconsistent fields.

    Also derives from :class:`ValueError` so callers (and tests) written
    against the pre-hierarchy behaviour keep working.
    """


class UnknownAttributeError(SchemaError, KeyError):
    """A result lookup named an attribute that is not part of the answer.

    Also derives from :class:`KeyError` for mapping-style compatibility.
    """


class CheckpointError(ReproError):
    """A plan checkpoint could not be written, read, or verified.

    Raised by :mod:`repro.durability.checkpoint` when a checkpoint file
    is missing, is not valid JSON, fails its sha256 integrity check
    (e.g. truncated by a crash that bypassed the atomic writer), or
    carries structurally invalid state.
    """


class CheckpointMismatchError(CheckpointError):
    """A checkpoint refuses to load against this code or dataset.

    Two cases: the file's schema version differs from
    :data:`repro.durability.checkpoint.CHECKPOINT_SCHEMA_VERSION`, or
    its dataset fingerprint does not match the store it is being resumed
    against. Both mean the snapshot's counters cannot be trusted to
    describe the data at hand, so loading is refused rather than
    degraded.
    """


class ManifestError(ReproError):
    """A dataset provenance manifest is malformed or cannot be processed.

    Raised by :mod:`repro.synth.census` when a manifest file is not valid
    JSON, misses required keys, or carries an unknown schema version.
    """


class ManifestMismatchError(ManifestError):
    """A provenance manifest does not describe the dataset at hand.

    Raised when verification finds the realized dataset (column set,
    row count, or sha256 fingerprint) differing from what the manifest
    records — the dataset cannot be trusted to be the manifested one,
    so benchmarks and golden comparisons must refuse it rather than
    silently compare against different data.
    """


class QueryInterruptedError(ReproError):
    """A query stopped before its stopping rule fired (strict mode only).

    Raised only when a query runs with ``strict=True``; the default
    behaviour on budget exhaustion or cancellation is to *return* a
    best-effort result whose :class:`~repro.core.results.GuaranteeStatus`
    records why the run stopped.

    Attributes
    ----------
    stopping_reason:
        Why the run stopped (``"deadline"``, ``"cell_budget"``,
        ``"sample_cap"``, or ``"cancelled"``).
    partial:
        The best-effort :class:`~repro.core.results.TopKResult` /
        :class:`~repro.core.results.FilterResult` the query would have
        returned in non-strict mode (``None`` when unavailable).
    """

    def __init__(
        self,
        message: str,
        *,
        stopping_reason: str | None = None,
        partial: object | None = None,
    ) -> None:
        super().__init__(message)
        self.stopping_reason = stopping_reason
        self.partial = partial


class BudgetExceededError(QueryInterruptedError):
    """A strict-mode query exhausted its :class:`~repro.core.budget.QueryBudget`."""


class QueryCancelledError(QueryInterruptedError):
    """A strict-mode query was cancelled through its
    :class:`~repro.core.budget.CancellationToken`."""
