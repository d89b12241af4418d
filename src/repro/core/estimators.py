"""Plug-in (maximum-likelihood) estimators for empirical entropy and MI.

These are the score functions the paper's queries rank and filter by
(Definitions 1 and 2):

* empirical entropy  ``H_D(α) = -Σ_i (n_i/N) log2(n_i/N)``
* empirical joint entropy over a pair of attributes
* empirical mutual information ``I = H(α1) + H(α2) - H(α1, α2)``

All functions work directly on occurrence-count arrays, which is the only
data representation the sampling substrate produces; none of them ever see
raw records. Everything is base-2 (bits), matching the paper. The SWOPE
algorithms correct the plug-in estimator's downward bias through the
explicit ``b(α)`` term of Lemma 1 (see :mod:`repro.core.bounds`), not
through a bias-corrected point estimate.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ParameterError

if TYPE_CHECKING:  # import for type checkers only: repro.data imports
    # back into repro.core, so a runtime import here would be circular.
    from repro.data.joint import JointCounter

__all__ = [
    "entropy_from_counts",
    "entropy_from_probabilities",
    "joint_entropy_from_counter",
    "mutual_information_from_counts",
]


def _validated_counts(counts: np.ndarray) -> np.ndarray:
    arr = np.asarray(counts)
    if arr.ndim != 1:
        raise ParameterError(f"counts must be 1-D, got shape {arr.shape}")
    if arr.size and int(arr.min()) < 0:
        raise ParameterError("counts must be non-negative")
    return arr


def entropy_from_counts(counts: np.ndarray, total: int | None = None) -> float:
    """Plug-in empirical entropy (bits) from occurrence counts.

    Parameters
    ----------
    counts:
        Occurrence counts ``n_i`` (zeros allowed — they contribute nothing).
    total:
        The number of records the counts were taken over. Defaults to
        ``counts.sum()``; pass it explicitly only as a consistency check
        (a mismatch raises :class:`~repro.exceptions.ParameterError`).

    Returns
    -------
    float
        ``-Σ (n_i/total) log2(n_i/total)``; ``0.0`` for an empty or
        single-valued sample. Never negative.
    """
    arr = _validated_counts(counts)
    observed_total = int(arr.sum())
    if total is None:
        total = observed_total
    elif total != observed_total:
        raise ParameterError(
            f"counts sum to {observed_total} but total={total} was declared"
        )
    if total == 0:
        return 0.0
    positive = arr[arr > 0].astype(np.float64)
    p = positive / float(total)
    # max(0, .) guards against -0.0 and tiny negative rounding residue.
    return max(0.0, float(-(p * np.log2(p)).sum()))


def _entropy_from_trusted_counts(counts: np.ndarray, total: int) -> float:
    """Plug-in entropy from counts whose invariants the caller guarantees.

    The same arithmetic as :func:`entropy_from_counts` minus its
    validation passes (ndim/negativity checks and the total
    cross-check each rescan the count vector). The adaptive engine
    calls this on the sampler's own counters — 1-D, non-negative, and
    summing to the prefix size by construction — so skipping the
    validation changes no bits of the result.
    """
    if total == 0:
        return 0.0
    positive = counts[counts > 0].astype(np.float64)
    p = positive / float(total)
    return max(0.0, float(-(p * np.log2(p)).sum()))


def _entropies_from_trusted_counts(
    counts_list: Sequence[np.ndarray], total: int
) -> list[float]:
    """Batched :func:`_entropy_from_trusted_counts` over one shared total.

    One elementwise pass (mask, divide, log) over the concatenation of
    all count vectors instead of a per-vector chain of small NumPy
    calls. Elementwise operations are indifferent to concatenation, and
    each vector's plug-in sum runs over its own contiguous segment —
    same data, same length, same pairwise reduction — so every returned
    entropy is bit-identical to the scalar helper's.
    """
    if total == 0:
        return [0.0] * len(counts_list)
    if len(counts_list) == 1:
        return [_entropy_from_trusted_counts(counts_list[0], total)]
    concat = np.concatenate(counts_list)
    nonzero = np.flatnonzero(concat)
    p = concat[nonzero].astype(np.float64)
    p /= float(total)
    terms = p * np.log2(p)
    # Segment boundaries in `terms`: the number of nonzero positions
    # before each vector's end within `concat` (integer search — exact).
    stops = list(accumulate(c.shape[0] for c in counts_list))
    ends = np.searchsorted(nonzero, stops).tolist()
    reduce_add = np.add.reduce  # what ndarray.sum dispatches to anyway
    entropies: list[float] = []
    start = 0
    for end in ends:
        entropies.append(max(0.0, float(-reduce_add(terms[start:end]))))
        start = end
    return entropies


def entropy_from_probabilities(probabilities: np.ndarray) -> float:
    """Shannon entropy (bits) of an explicit probability vector.

    Used by the synthetic-data generators to hit target entropies; the
    algorithms themselves always work from counts.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 1:
        raise ParameterError(f"probabilities must be 1-D, got shape {p.shape}")
    if p.size == 0:
        raise ParameterError("probability vector must be non-empty")
    if (p < 0).any():
        raise ParameterError("probabilities must be non-negative")
    total = float(p.sum())
    if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
        raise ParameterError(f"probabilities must sum to 1, got {total}")
    positive = p[p > 0]
    return max(0.0, float(-(positive * np.log2(positive)).sum()))


def joint_entropy_from_counter(counter: "JointCounter") -> float:
    """Plug-in empirical joint entropy (bits) from a pair counter."""
    return entropy_from_counts(counter.nonzero_counts(), total=counter.total)


def mutual_information_from_counts(
    counts_first: np.ndarray,
    counts_second: np.ndarray,
    joint: "JointCounter",
) -> float:
    """Plug-in empirical mutual information ``I = H1 + H2 - H12`` (bits).

    The three count sources must cover the same records: totals are checked
    and a mismatch raises :class:`~repro.exceptions.ParameterError`.

    The plug-in MI of a finite sample is mathematically non-negative; tiny
    negative floating-point residue is clamped to ``0.0``.
    """
    total_first = int(np.asarray(counts_first).sum())
    total_second = int(np.asarray(counts_second).sum())
    if not total_first == total_second == joint.total:
        raise ParameterError(
            "count totals disagree:"
            f" first={total_first}, second={total_second}, joint={joint.total}"
        )
    h1 = entropy_from_counts(counts_first)
    h2 = entropy_from_counts(counts_second)
    h12 = joint_entropy_from_counter(joint)
    return max(0.0, h1 + h2 - h12)
