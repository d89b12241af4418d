"""Resource budgets and cooperative cancellation for SWOPE queries.

The adaptive loops of the paper run until their stopping rule fires,
which on adversarial or low-entropy data can mean scanning nearly the
whole table. A production service must instead bound every query by
wall-clock time and by work, and still return *something useful*. The
Lemma 3 confidence intervals make that degradation quantifiable: at any
interruption point the engine holds valid ``[lower, upper]`` bounds for
every live candidate, so a truncated run can report a best-effort answer
together with the guarantee it *actually* achieved (see
:class:`~repro.core.results.GuaranteeStatus`).

Two cooperating primitives implement this:

* :class:`QueryBudget` — declarative per-query limits (wall-clock
  deadline, cells scanned, sample size), checked once per adaptive
  iteration by :func:`~repro.core.engine.adaptive_top_k` and
  :func:`~repro.core.engine.adaptive_filter`;
* :class:`CancellationToken` — a thread-safe flag a caller (another
  thread, a signal handler, a request supervisor) can set to stop an
  in-flight query at its next iteration boundary.

Budget checks happen *between* iterations, so every query completes at
least one iteration and always holds intervals to answer from — the
anytime-estimator contract.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from repro.exceptions import (
    BudgetExceededError,
    ParameterError,
    QueryCancelledError,
)

__all__ = [
    "QueryBudget",
    "CancellationToken",
    "check_interruption",
    "raise_interrupted",
]


@dataclass(frozen=True)
class QueryBudget:
    """Resource limits for one query (all optional, all positive).

    Parameters
    ----------
    deadline_ms:
        Wall-clock budget in milliseconds, measured from query start.
    max_cells:
        Maximum attribute values the query may read (the same
        machine-independent cost metric as
        :attr:`~repro.core.results.RunStats.cells_scanned`, counted
        relative to the query's start so samplers shared across an
        executor's queries are budgeted per query).
    max_sample_size:
        Largest sample prefix ``M`` the schedule may grow to. The first
        iteration always runs even if its sample size already exceeds
        the cap (the engine needs at least one set of intervals to
        answer from).
    """

    deadline_ms: float | None = None
    max_cells: int | None = None
    max_sample_size: int | None = None

    def __post_init__(self) -> None:
        for name in ("deadline_ms", "max_cells", "max_sample_size"):
            value = getattr(self, name)
            if value is None:
                continue
            if not math.isfinite(value) or value <= 0:
                raise ParameterError(
                    f"{name} must be a finite positive number, got {value}"
                )
        for name in ("max_cells", "max_sample_size"):
            value = getattr(self, name)
            if value is not None and int(value) != value:
                raise ParameterError(f"{name} must be an integer, got {value}")

    @property
    def unlimited(self) -> bool:
        """True when no limit is set (the budget can never fire)."""
        return (
            self.deadline_ms is None
            and self.max_cells is None
            and self.max_sample_size is None
        )

    def exhausted(
        self,
        *,
        elapsed_seconds: float,
        cells_used: int,
        next_sample_size: int,
    ) -> str | None:
        """The stopping reason the budget dictates, or ``None`` to continue.

        Checked by the engine once per adaptive iteration, before
        growing the sample to ``next_sample_size``. Limits are evaluated
        in a fixed precedence order — deadline, then cell budget, then
        sample cap — so a run that violates several reports the same
        reason deterministically.
        """
        if self.deadline_ms is not None and elapsed_seconds * 1000.0 >= self.deadline_ms:
            return "deadline"
        if self.max_cells is not None and cells_used >= self.max_cells:
            return "cell_budget"
        if self.max_sample_size is not None and next_sample_size > self.max_sample_size:
            return "sample_cap"
        return None


class CancellationToken:
    """Cooperative cancellation flag checked once per adaptive iteration.

    Thread-safe: any thread may call :meth:`cancel` while a query runs
    in another. Cancellation is observed at the next iteration boundary
    — the engine never aborts mid-interval — and is sticky (a token
    cannot be un-cancelled; use a fresh token per query attempt).

    >>> token = CancellationToken()
    >>> token.cancelled
    False
    >>> token.cancel("shutting down")
    >>> token.cancelled, token.reason
    (True, 'shutting down')
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._reason: str | None = None

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._event.is_set()

    @property
    def reason(self) -> str | None:
        """The reason passed to :meth:`cancel`, if any."""
        return self._reason

    def cancel(self, reason: str | None = None) -> None:
        """Request cancellation (idempotent; the first reason wins)."""
        if reason is not None and self._reason is None:
            self._reason = reason
        self._event.set()

    def raise_if_cancelled(self) -> None:
        """Raise :class:`~repro.exceptions.QueryCancelledError` if cancelled."""
        if self.cancelled:
            from repro.exceptions import QueryCancelledError

            detail = f": {self._reason}" if self._reason else ""
            raise QueryCancelledError(
                f"operation cancelled{detail}", stopping_reason="cancelled"
            )


def check_interruption(
    budget: QueryBudget | None,
    cancellation: CancellationToken | None,
    *,
    elapsed_seconds: float,
    cells_used: int,
    next_sample_size: int,
) -> str | None:
    """The per-iteration checkpoint every adaptive loop must call.

    Returns the forced stopping reason (``"cancelled"``, ``"deadline"``,
    ``"cell_budget"``, ``"sample_cap"``) or ``None`` to continue.
    Cancellation is an explicit caller request and takes precedence over
    budget limits. Shared by the SWOPE engine and the exact-stopping
    baselines, so the poll audit wraps one function and sees every poll.
    """
    if cancellation is not None and cancellation.cancelled:
        return "cancelled"
    if budget is None:
        return None
    return budget.exhausted(
        elapsed_seconds=elapsed_seconds,
        cells_used=cells_used,
        next_sample_size=next_sample_size,
    )


def raise_interrupted(reason: str, partial: object) -> None:
    """Strict mode: surface a truncated run as the matching exception.

    ``partial`` is the best-effort result the non-strict path would have
    returned; it rides on the exception so callers can still use it.
    """
    if reason == "cancelled":
        raise QueryCancelledError(
            "query cancelled before its stopping rule fired",
            stopping_reason=reason,
            partial=partial,
        )
    raise BudgetExceededError(
        f"query budget exhausted ({reason}) before the stopping rule fired",
        stopping_reason=reason,
        partial=partial,
    )
