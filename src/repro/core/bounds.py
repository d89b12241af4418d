"""Concentration and bias bounds for sampling without replacement.

This module is the mathematical core of the paper (Section 2.2, Lemma 1–4):

* :func:`bias_bound` — Lemma 1: the plug-in entropy of a without-replacement
  sample underestimates the population empirical entropy by at most
  ``b(α) = log2(1 + (u_α - 1)(N - M) / (M (N - 1)))``.
* :func:`beta_sensitivity` — the perturbation sensitivity
  ``β = log2(M / (M-1)) + log2(M-1) / M`` of the sample entropy under a
  single swap between the prefix and the suffix of the permutation.
* :func:`permutation_half_width` — Lemma 2 (El-Yaniv & Pechyony) inverted
  into the confidence half-width ``λ`` of Equation 6.
* :func:`entropy_interval` / :func:`joint_entropy_interval` /
  :func:`mutual_information_interval` — Lemma 3 and its Section 4
  extension: confidence intervals ``[lower, upper]`` such that the true
  population score lies inside with probability at least ``1 - p`` (per
  bound; the MI interval consumes three bounds, hence ``1 - 3p``).
* :func:`sample_size_for_width` — Lemma 4: the sample size ``M`` at which
  the interval width ``2λ + b(α)`` is guaranteed to drop below a target
  ``κ``.
* :func:`mi_decision_floor` — the first schedule size at which any rule
  of an MI query (top-k stop, prune, exact rank, filter include or
  exclude) can fire on some data; the loops evaluate nothing below it.

All bounds collapse to zero width at ``M = N`` (the sample is the whole
dataset), which the algorithms rely on for guaranteed termination.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ParameterError

__all__ = [
    "ConfidenceInterval",
    "MutualInformationInterval",
    "beta_sensitivity",
    "bias_bound",
    "entropy_interval",
    "entropy_intervals",
    "joint_entropy_interval",
    "loose_beta_sensitivity",
    "mi_decision_floor",
    "mi_intervals",
    "mutual_information_interval",
    "permutation_half_width",
    "sample_size_for_width",
]


def _check_sample_sizes(sample_size: int, population_size: int) -> None:
    if population_size < 1:
        raise ParameterError(f"population size must be >= 1, got {population_size}")
    if not 1 <= sample_size <= population_size:
        raise ParameterError(
            f"sample size must be in [1, {population_size}], got {sample_size}"
        )


def _check_probability(p: float, name: str = "failure probability") -> None:
    if not 0.0 < p < 1.0:
        raise ParameterError(f"{name} must be in (0, 1), got {p}")


def beta_sensitivity(sample_size: int) -> float:
    """Swap sensitivity ``β`` of the sample entropy (paper, before Lemma 3).

    ``β = log2(M / (M - 1)) + log2(M - 1) / M``. Exchanging one record of
    the sampled prefix with one record of the unsampled suffix changes the
    sample entropy by strictly less than ``2 log2(M) / M``; the paper uses
    this tighter closed form. Defined for ``M >= 2``; for ``M = 1`` (a
    single record has zero entropy regardless of its value, but the swap
    bound degenerates) we return the trivial bound ``1.0``, and for
    ``M = 2`` the formula itself gives ``1.0``.
    """
    if sample_size < 1:
        raise ParameterError(f"sample size must be >= 1, got {sample_size}")
    if sample_size == 1:
        return 1.0
    m = float(sample_size)
    return math.log2(m / (m - 1.0)) + math.log2(m - 1.0) / m


def loose_beta_sensitivity(sample_size: int) -> float:
    """The paper's *loose* sensitivity upper bound ``2 log2(M) / M``.

    The paper proves ``β < 2 log2(M)/M`` and uses the loose form inside
    the Lemma 4 / Theorem 2 analysis; the algorithms themselves use the
    tight closed form (:func:`beta_sensitivity`). This bound exists so
    the A5 ablation bench can quantify what the tight form buys.
    """
    if sample_size < 1:
        raise ParameterError(f"sample size must be >= 1, got {sample_size}")
    if sample_size < 3:
        return 1.0  # 2 log2(M)/M is not an upper bound below M = 3
    return 2.0 * math.log2(sample_size) / sample_size


def permutation_half_width(
    sample_size: int,
    population_size: int,
    failure_probability: float,
    *,
    beta_mode: str = "tight",
) -> float:
    """Confidence half-width ``λ`` of Equation 6.

    Inverts the Lemma 2 tail bound at probability ``failure_probability``
    (the per-side budget is ``failure_probability / 2``, matching the
    ``ln(2/p)`` in the paper's formula, so the *two-sided* interval
    ``H_S ± λ`` around the expectation fails with probability at most
    ``failure_probability``):

    ``λ = β √( M (N - M) ln(2/p) / (2 (N - 1/2) (1 - 1/(2 max(M, N-M)))) )``

    ``beta_mode`` selects the sensitivity: ``"tight"`` (paper closed
    form, default) or ``"loose"`` (the ``2 log2(M)/M`` analysis bound —
    ablation only). Returns ``0.0`` when ``M = N`` (the sample is the
    population, there is no randomness left).
    """
    _check_sample_sizes(sample_size, population_size)
    _check_probability(failure_probability)
    m, n = sample_size, population_size
    if m == n:
        return 0.0
    if beta_mode == "tight":
        beta = beta_sensitivity(m)
    elif beta_mode == "loose":
        beta = loose_beta_sensitivity(m)
    else:
        raise ParameterError(f"unknown beta_mode {beta_mode!r}")
    slack = 1.0 - 1.0 / (2.0 * max(m, n - m))
    # Lemma 3's deviation term is stated with ln(2/p_f) — a genuine
    # natural log, not an entropy quantity in bits.
    inner = (m * (n - m) * math.log(2.0 / failure_probability)) / (
        2.0 * (n - 0.5) * slack
    )
    return beta * math.sqrt(inner)


def bias_bound(support_size: int, sample_size: int, population_size: int) -> float:
    """Bias bound ``b(α)`` of Lemma 1 / Equation 7.

    ``b(α) = log2(1 + (u_α - 1)(N - M) / (M (N - 1)))`` bounds
    ``H_D(α) - E[H_S(α)]`` from above (the plug-in sample entropy is biased
    *low*). Zero when ``M = N``, when ``u_α = 1`` (a constant column), or
    when ``N = 1``.
    """
    _check_sample_sizes(sample_size, population_size)
    if support_size < 1:
        raise ParameterError(f"support size must be >= 1, got {support_size}")
    m, n, u = sample_size, population_size, support_size
    if m == n or u == 1 or n == 1:
        return 0.0
    return math.log2(1.0 + (u - 1.0) * (n - m) / (m * (n - 1.0)))


@dataclass(frozen=True)
class ConfidenceInterval:
    """A one-attribute entropy confidence interval (Lemma 3).

    Attributes
    ----------
    estimate:
        The plug-in sample entropy ``H_S(α)`` the interval was built from.
    lower, upper:
        ``H(α) ∈ [lower, upper]`` with probability at least ``1 - p``.
        ``lower = max(0, H_S - λ)``; ``upper = H_S + λ + b``. (Entropy is
        non-negative, so clipping the lower bound at zero only tightens
        it.)
    half_width:
        The concentration half-width ``λ``.
    bias:
        The bias allowance ``b(α)``.

    The *uncertainty width* the stopping rules reason about is
    ``2λ + b(α)`` (``width`` property) — note this intentionally ignores
    the zero-clipping of ``lower``, matching the paper's algebra
    ``H̲ = H̄ - 2λ - b``.
    """

    estimate: float
    lower: float
    upper: float
    half_width: float
    bias: float

    @property
    def width(self) -> float:
        """The paper's interval width ``2λ + b(α)`` (before zero-clipping)."""
        return 2.0 * self.half_width + self.bias

    @property
    def midpoint(self) -> float:
        """The point estimate ``(H̲ + H̄) / 2`` used by the filtering rules.

        Computed from the *unclipped* lower bound so that the Case-1
        algebra of Theorem 3 holds exactly.
        """
        unclipped_lower = self.upper - self.width
        return (unclipped_lower + self.upper) / 2.0

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the (clipped) interval."""
        return self.lower <= value <= self.upper


def entropy_interval(
    sample_entropy: float,
    support_size: int,
    sample_size: int,
    population_size: int,
    failure_probability: float,
    *,
    beta_mode: str = "tight",
) -> ConfidenceInterval:
    """Lemma 3 interval for one attribute's empirical entropy.

    Parameters
    ----------
    sample_entropy:
        ``H_S(α)`` computed on the first ``sample_size`` records of the
        shuffled data.
    support_size:
        ``u_α`` of the attribute on the *population* (the store's declared
        support size).
    sample_size, population_size:
        ``M`` and ``N``.
    failure_probability:
        Per-attribute, per-iteration budget ``p`` (the algorithms pass
        ``p'_f``).
    """
    return entropy_intervals(
        (sample_entropy,),
        (support_size,),
        sample_size,
        population_size,
        failure_probability,
        beta_mode=beta_mode,
    )[0]


def entropy_intervals(
    sample_entropies: Sequence[float],
    support_sizes: Sequence[int],
    sample_size: int,
    population_size: int,
    failure_probability: float,
    *,
    beta_mode: str = "tight",
) -> list[ConfidenceInterval]:
    """Lemma 3 intervals for a batch of attributes at one sample size.

    The batched form of :func:`entropy_interval` (which delegates here).
    All attributes of one adaptive iteration share ``(M, N, p)``, so the
    half-width ``λ`` is computed once for the batch, and the bias bound
    ``b(α)`` once per distinct support size — the identical scalar
    functions evaluate both, so every interval is bit-for-bit equal to
    its scalar counterpart.
    """
    if len(sample_entropies) != len(support_sizes):
        raise ParameterError(
            f"got {len(sample_entropies)} sample entropies but"
            f" {len(support_sizes)} support sizes"
        )
    lam = permutation_half_width(
        sample_size, population_size, failure_probability, beta_mode=beta_mode
    )
    bias_cache: dict[int, float] = {}
    intervals: list[ConfidenceInterval] = []
    for sample_entropy, support_size in zip(sample_entropies, support_sizes):
        if sample_entropy < 0:
            raise ParameterError(
                f"sample entropy must be >= 0, got {sample_entropy}"
            )
        bias = bias_cache.get(support_size)
        if bias is None:
            bias = bias_bound(support_size, sample_size, population_size)
            bias_cache[support_size] = bias
        intervals.append(
            # positional: (estimate, lower, upper, half_width, bias)
            ConfidenceInterval(
                sample_entropy,
                max(0.0, sample_entropy - lam),
                sample_entropy + lam + bias,
                lam,
                bias,
            )
        )
    return intervals


def joint_entropy_interval(
    sample_joint_entropy: float,
    support_first: int,
    support_second: int,
    sample_size: int,
    population_size: int,
    failure_probability: float,
) -> ConfidenceInterval:
    """Lemma 3 interval for the joint entropy of an attribute pair.

    As in Section 4 of the paper, the unknown pair support ``u_{t,α}`` is
    upper-bounded by ``u_t · u_α`` — pessimistic but never precomputed.
    """
    pair_support = support_first * support_second
    return entropy_interval(
        sample_joint_entropy,
        pair_support,
        sample_size,
        population_size,
        failure_probability,
    )


@dataclass(frozen=True)
class MutualInformationInterval:
    """Confidence interval for ``I(α_t, α)`` assembled from three entropy
    intervals (Section 4.1).

    ``I̲ = H̲(α_t) + H̲(α) - H̄(α_t, α)`` and
    ``Ī = H̄(α_t) + H̄(α) - H̲(α_t, α)``; both hold simultaneously with
    probability at least ``1 - 3p`` by union bound over the three
    constituent intervals.

    Attributes
    ----------
    estimate:
        The plug-in sample MI ``I_S``.
    lower, upper:
        The assembled bounds; ``lower`` is clipped at 0 (MI is
        non-negative).
    half_width:
        The shared single-entropy half-width ``λ`` (all three intervals use
        the same ``M``, so the same ``λ``). The total concentration slack
        inside the interval is ``6λ``.
    bias_target, bias_candidate, bias_joint:
        ``b(α_t)``, ``b(α)``, ``b(α_t, α)``.
    """

    estimate: float
    lower: float
    upper: float
    half_width: float
    bias_target: float
    bias_candidate: float
    bias_joint: float

    @property
    def bias_total(self) -> float:
        """``b'(α) = b(α_t) + b(α) + b(α_t, α)`` (Algorithm 3, line 6)."""
        return self.bias_target + self.bias_candidate + self.bias_joint

    @property
    def width(self) -> float:
        """``Ī - I̲`` before zero-clipping: ``6λ + b'(α)``."""
        return 6.0 * self.half_width + self.bias_total

    @property
    def midpoint(self) -> float:
        """``(I̲ + Ī) / 2`` from the unclipped lower bound."""
        return (self.upper - self.width + self.upper) / 2.0

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the (clipped) interval."""
        return self.lower <= value <= self.upper


def mutual_information_interval(
    target_interval: ConfidenceInterval,
    candidate_interval: ConfidenceInterval,
    joint_interval: ConfidenceInterval,
    sample_mutual_information: float,
) -> MutualInformationInterval:
    """Assemble the Section 4.1 MI interval from three entropy intervals.

    All three intervals must come from the same sample size (the shared
    ``λ`` is asserted to agree).
    """
    lam = target_interval.half_width
    if not (
        math.isclose(candidate_interval.half_width, lam, rel_tol=1e-12, abs_tol=1e-15)
        and math.isclose(joint_interval.half_width, lam, rel_tol=1e-12, abs_tol=1e-15)
    ):
        raise ParameterError(
            "the three entropy intervals of an MI bound must share one sample"
            " size (their half-widths differ)"
        )
    upper = (
        target_interval.estimate
        + candidate_interval.estimate
        - joint_interval.estimate
        + 3.0 * lam
        + target_interval.bias
        + candidate_interval.bias
    )
    width = 6.0 * lam + (
        target_interval.bias + candidate_interval.bias + joint_interval.bias
    )
    return MutualInformationInterval(
        estimate=sample_mutual_information,
        lower=max(0.0, upper - width),
        # MI is non-negative, so a (float-rounding) negative upper bound is
        # vacuous; clamp it like the lower bound so lower <= upper always.
        upper=max(0.0, upper),
        half_width=lam,
        bias_target=target_interval.bias,
        bias_candidate=candidate_interval.bias,
        bias_joint=joint_interval.bias,
    )


def mi_intervals(
    target_interval: ConfidenceInterval,
    sample_entropies: Sequence[float],
    support_sizes: Sequence[int],
    joint_entropies: Sequence[float],
    target_support: int,
    sample_size: int,
    population_size: int,
    failure_probability: float,
) -> list[MutualInformationInterval]:
    """Section 4.1 MI intervals for a batch of candidates at one sample size.

    ``sample_entropies[i]`` / ``support_sizes[i]`` describe candidate
    ``i``'s marginal, ``joint_entropies[i]`` its sample joint entropy
    with the target; ``target_interval`` is the (shared) Lemma 3 interval
    of the target attribute at the same ``(M, N, p)``. Candidate and
    joint entropy intervals are built through :func:`entropy_intervals`
    (pair supports bounded by ``u_t · u_α`` as in
    :func:`joint_entropy_interval`), so each element is bit-for-bit the
    interval the scalar path assembles.
    """
    if not len(sample_entropies) == len(support_sizes) == len(joint_entropies):
        raise ParameterError(
            f"got {len(sample_entropies)} sample entropies,"
            f" {len(support_sizes)} support sizes, and"
            f" {len(joint_entropies)} joint entropies"
        )
    candidate_ivs = entropy_intervals(
        sample_entropies,
        support_sizes,
        sample_size,
        population_size,
        failure_probability,
    )
    joint_ivs = entropy_intervals(
        joint_entropies,
        [target_support * support for support in support_sizes],
        sample_size,
        population_size,
        failure_probability,
    )
    intervals: list[MutualInformationInterval] = []
    for candidate_iv, joint_iv, joint_entropy in zip(
        candidate_ivs, joint_ivs, joint_entropies
    ):
        sample_mi = max(
            0.0,
            target_interval.estimate + candidate_iv.estimate - joint_entropy,
        )
        intervals.append(
            mutual_information_interval(
                target_interval, candidate_iv, joint_iv, sample_mi
            )
        )
    return intervals


#: Bits by which :func:`mi_decision_floor` loosens each rule's data-free
#: test. Rounded sample entropies can overshoot ``log2 u`` and a rounded
#: sample MI can undershoot 0 by a few ulps; the margin keeps the floor
#: at or below the first size where a rounded interval decides
#: anything. It is orders of magnitude below the change in ``λ``
#: between two schedule sizes.
FLOOR_MARGIN = 1e-9


def mi_decision_floor(
    sizes: Sequence[int],
    population_size: int,
    failure_probability: float,
    target_support: int,
    candidate_supports: Sequence[int],
    *,
    epsilon: float | None,
    k: int | None = None,
    threshold: float | None = None,
    prune: bool = True,
) -> int:
    """Index of the first of ``sizes`` at which an MI query's rule can fire.

    The Section 4.1 interval of candidate ``α`` at sample size ``M`` is
    ``upper = I_S + 3λ + b_t + b_α`` and ``lower = max(0, I_S - 3λ -
    b_joint)``, of width ``6λ + b_t + b_α + b_joint``, where the sample
    MI ``I_S`` lies in ``[0, log2 min(u_α, u_t, M)]`` whatever the data.
    Only ``I_S`` depends on the data, so each rule has a data-free
    necessary condition (``docs/THEORY.md``, "Decision floor"):

    * top-k stop (``epsilon`` set): some upper bound is 0, or the
      narrowest width is at most ``ε`` times the largest possible upper
      bound;
    * prune (``prune``, more candidates than ``k``) and the exact rank
      (``epsilon=None``): the largest possible lower bound passes (or,
      for the rank, reaches) the smallest possible upper bound;
    * filter include, exclude or width rule (``threshold`` set): the
      largest possible lower bound, the smallest possible upper bound or
      the narrowest width reaches its side of ``η``.

    Every test is loosened by :data:`FLOOR_MARGIN`. The last size is
    ``N``, where the bounds are exact and a rule always fires, so the
    result is at most ``len(sizes) - 1``. ``failure_probability`` is the
    per-bound ``p'_f`` the query's intervals use; give exactly one of
    ``k`` (top-k) and ``threshold`` (filter).
    """
    if (k is None) == (threshold is None):
        raise ParameterError("give exactly one of k (top-k) and threshold (filter)")
    if not candidate_supports:
        raise ParameterError("an MI query needs at least one candidate")
    if k is not None and epsilon is None and k >= len(candidate_supports):
        return 0  # the exact rank stops once at most k candidates are live
    last = len(sizes) - 1
    if last <= 0:
        return last
    _check_probability(failure_probability)
    if not 1 <= min(sizes[:last]) <= max(sizes[:last]) <= population_size:
        raise ParameterError(
            f"sample sizes must be in [1, {population_size}], got {sizes[:last]}"
        )
    return _floor_index(
        tuple(sizes[:last]),
        float(population_size),
        failure_probability,
        float(target_support),
        tuple(sorted(set(candidate_supports))),
        epsilon,
        threshold,
        k is not None and prune and len(candidate_supports) > k,
        FLOOR_MARGIN,
    )


@functools.lru_cache(maxsize=256)
def _floor_index(
    sizes: tuple[int, ...],
    n: float,
    failure_probability: float,
    target_support: float,
    supports: tuple[int, ...],
    epsilon: float | None,
    threshold: float | None,
    prunes: bool,
    margin: float,
) -> int:
    """:func:`mi_decision_floor` over the sizes below ``N``, memoised.

    A pure function of its arguments, and plans repeat query shapes, so
    a repeated shape costs a lookup instead of some 60 numpy calls.
    """
    last = len(sizes)
    # One row per size below N, one column per distinct candidate support.
    m = np.array(sizes, dtype=np.float64)[:, None]
    u = np.array(supports, dtype=np.float64)[None, :]
    lam = _half_widths(m, n, failure_probability)
    bias_target = _bias_bounds(target_support, m, n)
    bias = _bias_bounds(u, m, n)
    bias_joint = _bias_bounds(target_support * u, m, n)
    score = np.log2(np.minimum(np.minimum(u, target_support), m)) + margin
    spread = 3.0 * lam + bias_target + bias
    # largest lower bound, smallest and largest upper bound, narrowest width
    lower_top = np.maximum(0.0, (score - 3.0 * lam - bias_joint).max(axis=1))
    upper_low = np.maximum(0.0, spread - margin).min(axis=1)
    upper_top = np.maximum(0.0, (score + spread).max(axis=1))
    width_min = (6.0 * lam + bias_target + bias + bias_joint).min(axis=1) - margin
    if threshold is None:
        if epsilon is None:
            fires = lower_top >= upper_low
        else:
            fires = (upper_low <= 0.0) | (width_min <= epsilon * upper_top)
        if prunes:
            fires |= lower_top > upper_low
    elif epsilon is None:
        fires = (lower_top > threshold) | (upper_low < threshold)
    else:
        fires = (
            (width_min < 2.0 * epsilon * threshold)
            | (lower_top >= (1.0 - epsilon) * threshold)
            | (upper_low < (1.0 + epsilon) * threshold)
        )
    hits = np.flatnonzero(fires)
    return int(hits[0]) if hits.size else last


def _half_widths(m: np.ndarray, n: float, failure_probability: float) -> np.ndarray:
    """:func:`permutation_half_width` (tight β) over an array of sizes ``M < N``."""
    # β of M = 1 is 1.0: the formula's log2(1/0) would be infinite.
    safe = np.maximum(m, 2.0)
    beta = np.where(
        m > 1.0, np.log2(safe / (safe - 1.0)) + np.log2(safe - 1.0) / safe, 1.0
    )
    slack = 1.0 - 1.0 / (2.0 * np.maximum(m, n - m))
    # ln(2/p_f): the Lemma 3 deviation term, as in permutation_half_width.
    inner = (m * (n - m) * math.log(2.0 / failure_probability)) / (
        2.0 * (n - 0.5) * slack
    )
    return beta * np.sqrt(inner)


def _bias_bounds(u: np.ndarray | float, m: np.ndarray, n: float) -> np.ndarray:
    """:func:`bias_bound` over arrays of supports and sizes ``M < N``."""
    if n == 1.0:
        return np.zeros(np.broadcast(u, m).shape)
    return np.log2(1.0 + (u - 1.0) * (n - m) / (m * (n - 1.0)))


def sample_size_for_width(
    target_width: float,
    support_size: int,
    population_size: int,
    failure_probability: float,
) -> int:
    """Lemma 4: a sample size at which ``2λ + b(α) ≤ target_width`` holds.

    ``M* = N (2 log2(N) √(2 ln(2/p) N / (N - 1/2)) + u_α)² / ((N-1) κ²)``

    Returns the ceiling of ``M*`` clamped to ``[1, N]``. Used for the
    expected-running-time analysis and by tests that verify the doubling
    loop stops within a factor 2 of this bound; the algorithms themselves
    never need it.
    """
    if target_width <= 0:
        raise ParameterError(f"target width must be > 0, got {target_width}")
    if support_size < 1:
        raise ParameterError(f"support size must be >= 1, got {support_size}")
    _check_probability(failure_probability)
    n = population_size
    if n < 1:
        raise ParameterError(f"population size must be >= 1, got {n}")
    if n == 1:
        return 1
    log_term = 2.0 * math.log2(n) * math.sqrt(
        # ln(2/p_f) again: the same Lemma 3 deviation term, inverted.
        2.0 * math.log(2.0 / failure_probability) * n / (n - 0.5)
    )
    numerator = n * (log_term + support_size) ** 2
    m_star = numerator / ((n - 1.0) * target_width**2)
    return max(1, min(n, math.ceil(m_star)))
