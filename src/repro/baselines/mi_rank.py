"""EntropyRank extended to empirical mutual information (exact top-k).

The paper's evaluation (Section 6.3) runs EntropyRank's exact stopping rule
over the mutual-information bounds — this module is that competitor: the
Section 4 MI intervals with the KDD'19 stop-when-certain condition.
"""

from __future__ import annotations

import numpy as np

from repro.core.budget import CancellationToken, QueryBudget
from repro.core.engine import (
    MutualInformationScoreProvider,
    adaptive_top_k,
    default_failure_probability,
)
from repro.core.results import TopKResult
from repro.core.schedule import SampleSchedule
from repro.data.column_store import ColumnStore
from repro.data.sampling import PrefixSampler
from repro.exceptions import ParameterError, SchemaError

__all__ = ["entropy_rank_top_k_mutual_information"]


def entropy_rank_top_k_mutual_information(
    store: ColumnStore,
    target: str,
    k: int,
    *,
    failure_probability: float | None = None,
    seed: int | np.random.Generator | None = None,
    candidates: list[str] | None = None,
    schedule: SampleSchedule | None = None,
    sampler: PrefixSampler | None = None,
    prune: bool = True,
    budget: QueryBudget | None = None,
    cancellation: CancellationToken | None = None,
    strict: bool = False,
) -> TopKResult:
    """Answer an *exact* MI top-k query by adaptive sampling.

    Parameters mirror
    :func:`repro.core.swope.swope_top_k_mutual_information`, minus
    ``epsilon``.
    ``sampler=`` runs on a pre-built
    :class:`~repro.data.sampling.PrefixSampler` (e.g. a sequential one).
    ``budget``/``cancellation``/``strict`` behave as in the SWOPE engine.
    """
    if target not in store:
        raise SchemaError(f"unknown target attribute {target!r}")
    if candidates is None:
        names = [a for a in store.attributes if a != target]
    else:
        names = list(candidates)
        unknown = [a for a in names if a not in store]
        if unknown:
            raise SchemaError(f"unknown attributes: {unknown}")
        if target in names:
            raise ParameterError(
                f"target attribute {target!r} cannot also be a candidate"
            )
    if not names:
        raise ParameterError("MI top-k query needs at least one candidate attribute")
    if failure_probability is None:
        failure_probability = default_failure_probability(store.num_rows)
    if sampler is None:
        sampler = PrefixSampler(store, seed=seed)
    if schedule is None:
        schedule = SampleSchedule.for_query(
            store.num_rows,
            len(names) + 1,
            failure_probability,
            max(store.support_size(a) for a in [target, *names]),
        )
    per_bound = schedule.per_round_failure(
        failure_probability, len(names), bounds_per_attribute=3
    )
    provider = MutualInformationScoreProvider(sampler, target, per_bound)
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
        target=target,
        budget=budget,
        cancellation=cancellation,
        strict=strict,
    )
