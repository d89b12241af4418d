"""Sample-size schedule: initial size ``M0``, doubling, failure budgets.

All four SWOPE algorithms (and our EntropyRank/EntropyFilter baselines)
share the same adaptive loop skeleton:

1. start from an initial sample size ``M0``;
2. after each unsuccessful iteration grow the sample (doubling by default);
3. split the overall failure probability ``p_f`` uniformly over at most
   ``i_max = ceil(log2(N / M0)) + 1`` iterations and the attributes whose
   bounds are evaluated (``p'_f = p_f / (i_max · h)``; MI queries consume
   three bounds per attribute per iteration, hence the extra factor 3).

The paper's ``M0`` (discussion after Theorem 2) is::

    M0 = ln(h · log2(N) / p_f) · log2(N)² / log2(u_max)²

— the minimum sample justified when the k-th largest entropy takes its
largest possible value ``log2(u_max)`` and ``ε = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.exceptions import ParameterError

__all__ = ["SampleSchedule", "initial_sample_size", "max_iterations"]

#: Smallest initial sample we ever use. The β sensitivity needs ``M ≥ 2``;
#: in practice a handful of records cost nothing and keep the very first
#: bounds meaningful on tiny datasets.
MIN_INITIAL_SAMPLE = 16


def initial_sample_size(
    population_size: int,
    num_attributes: int,
    failure_probability: float,
    max_support_size: int,
) -> int:
    """The paper's initial sample size ``M0``, clamped to ``[16, N]``.

    ``u_max`` is clamped to at least 2 (an all-constant dataset would
    otherwise divide by ``log2(1) = 0``; any positive start is correct
    there since every score is exactly zero).
    """
    if population_size < 1:
        raise ParameterError(f"population size must be >= 1, got {population_size}")
    if num_attributes < 1:
        raise ParameterError(f"num attributes must be >= 1, got {num_attributes}")
    if not 0.0 < failure_probability < 1.0:
        raise ParameterError(
            f"failure probability must be in (0, 1), got {failure_probability}"
        )
    n = population_size
    u_max = max(2, max_support_size)
    log2_n = math.log2(max(n, 2))
    ratio = num_attributes * max(log2_n, 1.0) / failure_probability
    if math.isinf(ratio):
        raise ParameterError(
            f"failure probability {failure_probability!r} is too small:"
            " h·log2(N)/p_f overflows a float"
        )
    # The paper's M0 uses ln(h·log2(N)/p_f) — natural log by design.
    numerator = math.log(ratio) * log2_n**2  # noqa: SWP001
    m0 = math.ceil(numerator / math.log2(u_max) ** 2)
    return max(MIN_INITIAL_SAMPLE, min(n, m0))


def max_iterations(population_size: int, initial_size: int) -> int:
    """``i_max = ceil(log2(N / M0)) + 1`` — the doubling-iteration budget."""
    if not 1 <= initial_size <= population_size:
        raise ParameterError(
            f"initial size must be in [1, {population_size}], got {initial_size}"
        )
    return math.ceil(math.log2(population_size / initial_size)) + 1


@dataclass(frozen=True)
class SampleSchedule:
    """A concrete growth schedule for one query run.

    Parameters
    ----------
    population_size:
        ``N`` of the dataset being queried.
    initial_size:
        First sample size ``M0``.
    growth_factor:
        Multiplier applied after each unsuccessful iteration. The paper
        doubles (factor 2); the ablation benches also exercise 1.5 and 4.
    mode:
        ``"geometric"`` (paper) multiplies by ``growth_factor``;
        ``"linear"`` adds ``initial_size`` each iteration (the batch style
        of the KDD'19 baseline paper).
    """

    population_size: int
    initial_size: int
    growth_factor: float = 2.0
    mode: str = "geometric"
    _sizes: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 1 <= self.initial_size <= self.population_size:
            raise ParameterError(
                f"initial size must be in [1, {self.population_size}],"
                f" got {self.initial_size}"
            )
        if self.mode not in ("geometric", "linear"):
            raise ParameterError(f"unknown schedule mode {self.mode!r}")
        if self.mode == "geometric" and self.growth_factor <= 1.0:
            raise ParameterError(
                f"geometric growth factor must be > 1, got {self.growth_factor}"
            )
        sizes = [self.initial_size]
        while sizes[-1] < self.population_size:
            if self.mode == "geometric":
                nxt = int(math.ceil(sizes[-1] * self.growth_factor))
            else:
                nxt = sizes[-1] + self.initial_size
            nxt = max(nxt, sizes[-1] + 1)
            sizes.append(min(self.population_size, nxt))
        object.__setattr__(self, "_sizes", tuple(sizes))

    @property
    def sizes(self) -> tuple[int, ...]:
        """All sample sizes the schedule can visit, ending at ``N``."""
        return self._sizes

    @property
    def num_iterations(self) -> int:
        """Number of iterations if the loop never stops early."""
        return len(self._sizes)

    def per_round_failure(
        self, overall_failure: float, num_attributes: int, bounds_per_attribute: int = 1
    ) -> float:
        """Split ``p_f`` into the per-bound budget ``p'_f``.

        ``p'_f = p_f / (i_max · h · bounds_per_attribute)`` — entropy
        queries use one bound per attribute per iteration
        (``bounds_per_attribute = 1``); MI queries use three (target,
        candidate, joint — Algorithms 3-4 set ``p'_f = p_f / (3 i_max (h-1))``).
        """
        if not 0.0 < overall_failure < 1.0:
            raise ParameterError(
                f"failure probability must be in (0, 1), got {overall_failure}"
            )
        if num_attributes < 1:
            raise ParameterError(
                f"num attributes must be >= 1, got {num_attributes}"
            )
        if bounds_per_attribute < 1:
            raise ParameterError(
                f"bounds per attribute must be >= 1, got {bounds_per_attribute}"
            )
        budget = self.num_iterations * num_attributes * bounds_per_attribute
        return overall_failure / budget

    @classmethod
    def for_query(
        cls,
        population_size: int,
        num_attributes: int,
        failure_probability: float,
        max_support_size: int,
        *,
        growth_factor: float = 2.0,
        mode: str = "geometric",
        initial_size: int | None = None,
    ) -> "SampleSchedule":
        """Build the paper-default schedule for one query.

        ``initial_size`` overrides the ``M0`` formula when given (used by
        ablations and tests).
        """
        if initial_size is None:
            initial_size = initial_sample_size(
                population_size, num_attributes, failure_probability, max_support_size
            )
        return cls(
            population_size=population_size,
            initial_size=min(initial_size, population_size),
            growth_factor=growth_factor,
            mode=mode,
        )
