"""EntropyFilter: the exact-answer filtering baseline of Wang & Ding (KDD'19).

Same bounds as SWOPE-Filtering, but an attribute is only retired once its
whole confidence interval clears the threshold — so attributes whose score
sits close to ``η`` keep the loop sampling until the data-dependent gap
``δ = |H(α) - η|`` is resolved (expected cost ``O(h log(hN) log²N / δ²)``).
"""

from __future__ import annotations

import numpy as np

from repro.core.budget import CancellationToken, QueryBudget
from repro.core.engine import (
    EntropyScoreProvider,
    adaptive_filter,
    default_failure_probability,
)
from repro.core.results import FilterResult
from repro.core.schedule import SampleSchedule
from repro.data.column_store import ColumnStore
from repro.data.sampling import PrefixSampler
from repro.exceptions import ParameterError, SchemaError

__all__ = ["entropy_filter"]


def entropy_filter(
    store: ColumnStore,
    threshold: float,
    *,
    failure_probability: float | None = None,
    seed: int | np.random.Generator | None = None,
    attributes: list[str] | None = None,
    schedule: SampleSchedule | None = None,
    sampler: PrefixSampler | None = None,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
) -> FilterResult:
    """Answer an *exact* entropy filtering query by adaptive sampling.

    Parameters mirror :func:`repro.core.swope.swope_filter_entropy`,
    minus ``epsilon``.
    ``sampler=`` runs on a pre-built
    :class:`~repro.data.sampling.PrefixSampler` (e.g. a sequential one).
    ``budget``/``cancellation``/``strict`` behave as in the SWOPE engine.
    """
    names = list(attributes) if attributes is not None else list(store.attributes)
    unknown = [a for a in names if a not in store]
    if unknown:
        raise SchemaError(f"unknown attributes: {unknown}")
    if not names:
        raise ParameterError("filtering query needs at least one candidate attribute")
    if failure_probability is None:
        failure_probability = default_failure_probability(store.num_rows)
    if sampler is None:
        sampler = PrefixSampler(store, seed=seed)
    if schedule is None:
        schedule = SampleSchedule.for_query(
            store.num_rows,
            len(names),
            failure_probability,
            max(store.support_size(a) for a in names),
        )
    per_bound = schedule.per_round_failure(failure_probability, len(names))
    provider = EntropyScoreProvider(sampler, per_bound)
    # The exact rule is not a QuerySpec variant (it would add a field to
    # plans, cache keys and checkpoints), so the baseline drives the loop
    # directly with epsilon=None.
    return adaptive_filter(  # noqa: SWP011
        provider,
        sampler,
        names,
        threshold,
        None,
        schedule,
        budget=budget,
        cancellation=cancellation,
        strict=strict,
    )
