"""EntropyRank: the exact-answer top-k baseline of Wang & Ding (KDD'19).

The state of the art the reproduced paper compares against. Same sampling
substrate and Lemma 3 bounds as SWOPE, but the loop only stops once the
returned set is *provably the exact* top-k (k-th largest lower bound ≥
(k+1)-th largest upper bound), so the sample must grow until the
data-dependent gap Δ between the k-th and (k+1)-th entropies is resolved —
expected cost ``O(h log(hN) log²N / Δ²)``.
"""

from __future__ import annotations

import numpy as np

from repro.core.budget import CancellationToken, QueryBudget
from repro.core.engine import (
    EntropyScoreProvider,
    adaptive_top_k,
    default_failure_probability,
)
from repro.core.results import TopKResult
from repro.core.schedule import SampleSchedule
from repro.data.column_store import ColumnStore
from repro.data.sampling import PrefixSampler
from repro.exceptions import ParameterError, SchemaError

__all__ = ["entropy_rank_top_k"]


def entropy_rank_top_k(
    store: ColumnStore,
    k: int,
    *,
    failure_probability: float | None = None,
    seed: int | np.random.Generator | None = None,
    attributes: list[str] | None = None,
    schedule: SampleSchedule | None = None,
    sampler: PrefixSampler | None = None,
    prune: bool = True,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
) -> TopKResult:
    """Answer an *exact* entropy top-k query by adaptive sampling.

    Parameters mirror :func:`repro.core.swope.swope_top_k_entropy`, minus
    ``epsilon`` — this baseline has no approximation knob.
    ``sampler=`` runs on a pre-built
    :class:`~repro.data.sampling.PrefixSampler` (e.g. a sequential one).
    ``budget``/``cancellation``/``strict`` behave as in the SWOPE engine.
    """
    names = list(attributes) if attributes is not None else list(store.attributes)
    unknown = [a for a in names if a not in store]
    if unknown:
        raise SchemaError(f"unknown attributes: {unknown}")
    if not names:
        raise ParameterError("top-k query needs at least one candidate attribute")
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
    return adaptive_top_k(  # noqa: SWP011
        provider,
        sampler,
        names,
        k,
        None,
        schedule,
        prune=prune,
        budget=budget,
        cancellation=cancellation,
        strict=strict,
    )
