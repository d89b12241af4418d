"""Plan-level crash recovery: retry → checkpoint → resume.

:func:`execute_plan_with_recovery` is the degradation ladder the
durability layer promises for flaky storage: an attempt that dies on a
transient error (an :class:`OSError` from a flaky
:class:`~repro.data.column_store.ColumnStore`, say) is retried with
bounded exponential backoff, and every retry *resumes from the last
durable checkpoint* instead of restarting the plan — the work already
paid for (retired queries, grown counters, the scanned prefix) is never
re-bought. Because resumed runs are bit-identical to uninterrupted ones
(the :class:`~repro.core.plan.PlanExecutor` contract), recovery changes
*when* the answers arrive, never *what* they are.

A corrupt or version-mismatched checkpoint is not fatal either: the
attempt falls back to a fresh run, whose plan-start snapshot immediately
replaces the bad file. Only
:class:`~repro.testing.chaos.SimulatedKillError` (and anything else
outside ``retryable``) propagates — a simulated SIGKILL must kill.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence, Union

import numpy as np

from repro.core.plan import PlanExecutor, plan_queries
from repro.exceptions import CheckpointError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.budget import CancellationToken, QueryBudget
    from repro.core.plan import PlanResult, QuerySpec
    from repro.data.backends import CountingBackend
    from repro.data.column_store import ColumnStore
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.sinks import TraceSink

__all__ = ["execute_plan_with_recovery"]


def execute_plan_with_recovery(
    store: "ColumnStore",
    specs: "Sequence[QuerySpec]",
    *,
    checkpoint_path: Union[str, Path],
    seed: int | np.random.Generator | None = None,
    backend: "str | CountingBackend | None" = None,
    budget: "QueryBudget | None" = None,
    cancellation: "CancellationToken | None" = None,
    strict: bool = False,
    trace: "TraceSink | None" = None,
    metrics: "MetricsRegistry | None" = None,
    max_retries: int = 3,
    base_delay_s: float = 0.05,
    max_delay_s: float = 2.0,
    jitter: float = 0.5,
    max_elapsed_s: float | None = None,
    retryable: tuple[type[BaseException], ...] = (OSError,),
    sleep: Callable[[float], None] = time.sleep,
    rng: int | np.random.Generator | None = None,
) -> "PlanResult":
    """Execute ``specs`` durably, retrying transient failures via resume.

    Each attempt resumes from ``checkpoint_path`` when a loadable
    checkpoint exists there (falling back to a fresh, seeded run when
    the file is absent, corrupt, or written for a different dataset —
    :class:`~repro.exceptions.CheckpointError` is a fallback signal, not
    a failure) and otherwise starts fresh with checkpointing enabled.
    Failures of ``retryable`` types are retried with the exact backoff
    contract of :func:`~repro.testing.faults.retry_with_backoff`
    (``max_retries``/``base_delay_s``/``max_delay_s``/``jitter``/
    ``max_elapsed_s``/``sleep``/``rng`` pass straight through); anything
    else propagates on the spot with the latest checkpoint intact on
    disk for a later manual resume.
    """
    from repro.testing.faults import retry_with_backoff

    path = Path(checkpoint_path)
    plan = plan_queries(store, list(specs))

    def attempt() -> "PlanResult":
        executor: PlanExecutor | None = None
        if path.exists():
            try:
                executor = PlanExecutor.resume(
                    path, store, backend=backend, trace=trace, metrics=metrics
                )
                if executor.resumed_plan().specs != plan.specs:
                    # A stale checkpoint for some other plan: start fresh
                    # and let the plan-start snapshot overwrite it.
                    executor = None
            except CheckpointError:
                executor = None
        if executor is None:
            executor = PlanExecutor(
                store,
                seed=seed,
                backend=backend,
                budget=budget,
                trace=trace,
                metrics=metrics,
                checkpoint_path=path,
            )
        return executor.execute(
            plan, cancellation=cancellation, strict=strict
        )

    result = retry_with_backoff(
        attempt,
        max_retries=max_retries,
        base_delay_s=base_delay_s,
        max_delay_s=max_delay_s,
        jitter=jitter,
        max_elapsed_s=max_elapsed_s,
        retryable=retryable,
        sleep=sleep,
        rng=rng,
    )
    return result  # type: ignore[return-value]
