"""Chaos harness: scripted faults at plan iteration boundaries.

The durability claim of :class:`~repro.core.plan.PlanExecutor` — kill
the process at *any* iteration boundary, resume from the checkpoint,
get bit-identical answers — is only worth something if it is proved at
every boundary, not a hand-picked one. This module is the proving rig:

* :class:`ChaosPlan` — a tiny fault-plan DSL (``"run:3 kill"``) mapping
  iteration-boundary ordinals to fault actions;
* :class:`BoundaryFaultToken` — a cancellation-token-shaped probe that
  fires those faults exactly at the engine's interruption checks
  (:class:`SimulatedKillError` for a crash, :class:`OSError` for flaky
  IO, cooperative ``cancel``);
* :func:`count_iteration_boundaries` — how many kill opportunities a
  workload has, so a test can sweep all of them;
* :func:`truncate_file` — simulate the torn write a non-atomic writer
  would leave behind;
* :func:`result_fingerprint` / :func:`plan_fingerprint` — the
  deterministic projection of results (answers, estimates, guarantees,
  work accounting; wall-clock excluded) that resumed and uninterrupted
  runs must agree on byte-for-byte.

The kill fires at the interruption check, which the adaptive loops run
*before* the prune step and the checkpoint hook of the same iteration:
the last durable checkpoint is therefore the previous boundary, and a
resumed run replays exactly one iteration — the strongest alignment a
crash-consistent snapshot can promise.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence, Union

from repro.exceptions import ParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.plan import PlanResult, QueryPlan, QueryResult

__all__ = [
    "FAULT_ACTIONS",
    "BoundaryFaultToken",
    "ChaosPlan",
    "SimulatedKillError",
    "count_iteration_boundaries",
    "plan_fingerprint",
    "result_fingerprint",
    "truncate_file",
]

#: The three injectable faults: a hard crash, a flaky-IO error, and a
#: cooperative cancellation.
FAULT_ACTIONS = ("kill", "io_error", "cancel")


class SimulatedKillError(Exception):
    """A simulated process death.

    Deliberately *not* a :class:`~repro.exceptions.ReproError` — nothing
    in the engine or executor may catch it, exactly as nothing catches a
    real SIGKILL. Whatever checkpoint was on disk when it fired is what
    recovery gets.
    """


@dataclass(frozen=True)
class ChaosPlan:
    """A scripted schedule of faults keyed by iteration-boundary ordinal.

    ``faults`` maps 0-based boundary ordinals (the n-th interruption
    check across the whole plan execution) to an action from
    :data:`FAULT_ACTIONS`. Build one directly, via :meth:`kill_at`, or
    from the DSL::

        ChaosPlan.from_steps("run:3 kill")     # survive 3 checks, die on the 4th
        ChaosPlan.from_steps("run:1 io-error run:2 cancel")
    """

    faults: tuple[tuple[int, str], ...] = ()

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for boundary, action in self.faults:
            if boundary < 0:
                raise ParameterError(
                    f"fault boundary must be >= 0, got {boundary!r}"
                )
            if action not in FAULT_ACTIONS:
                raise ParameterError(
                    f"unknown fault action {action!r};"
                    f" expected one of {FAULT_ACTIONS}"
                )
            if boundary in seen:
                raise ParameterError(
                    f"duplicate fault at boundary {boundary}"
                )
            seen.add(boundary)

    def action_at(self, boundary: int) -> str | None:
        """The fault scheduled for ``boundary``, or ``None``."""
        for at, action in self.faults:
            if at == boundary:
                return action
        return None

    @classmethod
    def kill_at(cls, boundary: int) -> "ChaosPlan":
        """Die at the ``boundary``-th interruption check (0-based)."""
        return cls(faults=((boundary, "kill"),))

    @classmethod
    def from_steps(cls, steps: Union[str, Sequence[str]]) -> "ChaosPlan":
        """Parse the DSL: ``run:N`` advances N healthy boundaries, a
        fault token (``kill`` / ``io-error`` / ``cancel``) burns one."""
        tokens = steps.replace(",", " ").split() if isinstance(steps, str) else list(steps)
        faults: list[tuple[int, str]] = []
        boundary = 0
        for token in tokens:
            word = token.strip().lower()
            if word.startswith("run:"):
                try:
                    advance = int(word[4:])
                except ValueError:
                    raise ParameterError(
                        f"bad chaos step {token!r}: run:N needs an integer"
                    ) from None
                if advance < 0:
                    raise ParameterError(
                        f"bad chaos step {token!r}: run:N needs N >= 0"
                    )
                boundary += advance
                continue
            action = word.replace("-", "_")
            if action not in FAULT_ACTIONS:
                raise ParameterError(
                    f"unknown chaos step {token!r}; expected run:N or one of"
                    f" {FAULT_ACTIONS}"
                )
            faults.append((boundary, action))
            boundary += 1
        return cls(faults=tuple(faults))


class BoundaryFaultToken:
    """A cancellation-token-shaped probe firing a :class:`ChaosPlan`.

    The engine polls ``cancelled`` once per iteration boundary (the
    interruption check every adaptive loop runs before growing the
    sample). This token counts those polls and fires the scheduled
    fault when its ordinal comes up: ``kill`` raises
    :class:`SimulatedKillError`, ``io_error`` raises :class:`OSError`,
    ``cancel`` returns ``True`` (cooperative degradation) at that poll
    and every later one, as a cancelled
    :class:`~repro.core.budget.CancellationToken` does. With no plan it
    is a pure boundary counter.
    """

    def __init__(self, plan: ChaosPlan | None = None) -> None:
        self._actions = dict(plan.faults) if plan is not None else {}
        #: Interruption checks observed so far (== boundaries crossed).
        self.checks = 0
        #: ``(boundary, action)`` pairs that actually fired.
        self.fired: list[tuple[int, str]] = []
        self.reason: str | None = None

    @property
    def cancelled(self) -> bool:
        boundary = self.checks
        self.checks += 1
        if self.reason is not None:
            return True
        action = self._actions.get(boundary)
        if action is None:
            return False
        self.fired.append((boundary, action))
        if action == "kill":
            raise SimulatedKillError(
                f"simulated process death at iteration boundary {boundary}"
            )
        if action == "io_error":
            raise OSError(
                f"injected IO failure at iteration boundary {boundary}"
            )
        self.reason = f"chaos cancel at boundary {boundary}"
        return True


def count_iteration_boundaries(
    store: Any,
    specs: Sequence[Any],
    *,
    seed: int | None = None,
    backend: Any = None,
) -> int:
    """Kill opportunities in one uninterrupted run of ``specs``.

    Runs the plan on a fresh throwaway executor with a counting token
    and returns how many interruption checks the engine performed — the
    exclusive upper bound for :meth:`ChaosPlan.kill_at` sweeps. That is
    one check per iteration boundary, plus one for each MI query that
    starts below its decision floor: it polls once at the jump, and the
    sizes it skips are not boundaries
    (:func:`repro.core.bounds.mi_decision_floor`).
    """
    from repro.core.plan import PlanExecutor, plan_queries

    executor = PlanExecutor(store, seed=seed, backend=backend)
    token = BoundaryFaultToken()
    executor.execute(plan_queries(store, list(specs)), cancellation=token)
    return token.checks


def truncate_file(path: Union[str, Path], keep_bytes: int) -> int:
    """Truncate ``path`` to its first ``keep_bytes`` bytes.

    Simulates the torn artifact a crash mid-write would leave behind if
    the writer were not atomic; returns the number of bytes kept. The
    write is deliberately in-place and non-atomic — that is the point.
    """
    if keep_bytes < 0:
        raise ParameterError(f"keep_bytes must be >= 0, got {keep_bytes!r}")
    target = Path(path)
    data = target.read_bytes()[:keep_bytes]
    target.write_bytes(data)
    return len(data)


def result_fingerprint(result: "QueryResult") -> dict[str, Any]:
    """The deterministic projection of one query result.

    Everything seed-determined is included — answer order, estimates and
    intervals, sample sizes, cells scanned, prune counts, the guarantee
    — and everything machine-dependent (wall-clock phase timings) is
    excluded. Two runs at the same seed must agree on this exactly;
    the chaos suite pins resumed == uninterrupted through it.
    """
    estimates = result.estimates
    if isinstance(estimates, dict):
        estimate_list = list(estimates.values())
    else:
        estimate_list = list(estimates)
    stats = result.stats
    guarantee = result.guarantee
    return {
        "attributes": list(result.attributes),
        "estimates": [
            (e.attribute, e.estimate, e.lower, e.upper, e.sample_size)
            for e in estimate_list
        ],
        "stats": {
            "iterations": stats.iterations,
            "final_sample_size": stats.final_sample_size,
            "population_size": stats.population_size,
            "cells_scanned": stats.cells_scanned,
            "candidates_pruned": stats.candidates_pruned,
        },
        "guarantee": (
            None
            if guarantee is None
            else {
                "guarantee_met": guarantee.guarantee_met,
                "stopping_reason": guarantee.stopping_reason,
                "requested_epsilon": guarantee.requested_epsilon,
                "achieved_epsilon": guarantee.achieved_epsilon,
            }
        ),
    }


def plan_fingerprint(plan_result: "PlanResult") -> dict[str, Any]:
    """Deterministic projection of a whole :class:`~repro.core.plan.PlanResult`."""
    stats = plan_result.stats
    return {
        "results": {
            name: result_fingerprint(result)
            for name, result in plan_result.results.items()
        },
        "stats": {
            "queries": stats.queries,
            "queries_completed": stats.queries_completed,
            "cells_scanned": stats.cells_scanned,
            "per_query_cells": dict(stats.per_query_cells),
            "sample_floor": stats.sample_floor,
            "population_size": stats.population_size,
        },
    }
