"""The counting backend of the sampling substrate.

Occurrence counting — reading a block of a run's rows from an encoded
column and histogramming it with ``bincount`` — is the only data-touching
operation on the adaptive query hot path, and the paper's cost model
(cells scanned) charges exactly this work. Everything above it (bounds,
stopping rules, pruning) is pure arithmetic over the resulting counts.

This module isolates that operation behind the :class:`CountingBackend`
protocol so :class:`~repro.data.sampling.PrefixSampler` can batch the
per-iteration work of *all* live candidate columns into a single call.
:class:`NumpyBackend` — one ``bincount`` pass per column — is
the one built-in backend; the protocol stays so callers (tests, most
often) can pass their own instance. The engine depends only on the
counts a backend returns, so any backend that returns the same counts
gives the same answers.

:func:`resolve_backend` maps the user-facing spelling (``None``,
``"numpy"``, or an instance) onto a backend instance; the four
``swope_*`` entry points and :class:`~repro.core.plan.PlanExecutor`
accept the same spelling.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Protocol

import numpy as np

from repro.exceptions import ParameterError

__all__ = [
    "CountingBackend",
    "NumpyBackend",
    "resolve_backend",
]


class CountingBackend(Protocol):
    """Strategy for counting encoded columns over a block of prefix rows."""

    #: Stable identifier (``"numpy"`` for the built-in backend).
    name: str

    def count_columns(
        self,
        columns: Sequence[np.ndarray],
        support_sizes: Sequence[int],
        rows: np.ndarray | slice,
    ) -> list[np.ndarray]:
        """Per-column occurrence counts of ``column[rows]``.

        The sampler passes layout-ordered column handles and a
        contiguous slice of layout positions, shared by every column of
        the batch; any row selector numpy accepts works, and counts do
        not depend on its order. The i-th result has length
        ``support_sizes[i]`` at least, exactly as ``np.bincount`` with
        ``minlength`` returns it.
        """
        ...  # pragma: no cover - protocol


class NumpyBackend:
    """NumPy ``bincount`` per column over ``column[rows]``."""

    name = "numpy"

    def count_columns(
        self,
        columns: Sequence[np.ndarray],
        support_sizes: Sequence[int],
        rows: np.ndarray | slice,
    ) -> list[np.ndarray]:
        return [
            np.bincount(column[rows], minlength=support)
            for column, support in zip(columns, support_sizes)
        ]


def resolve_backend(backend: str | CountingBackend | None) -> CountingBackend:
    """Normalise a backend spelling into a :class:`CountingBackend`.

    ``None`` and ``"numpy"`` give a :class:`NumpyBackend`; any other
    string is rejected. Anything else must already satisfy the protocol
    and is returned as-is.
    """
    if backend is None or backend == "numpy":
        return NumpyBackend()
    if isinstance(backend, str):
        raise ParameterError(
            f"unknown counting backend {backend!r}; the only built-in"
            " backend is 'numpy' (or pass a CountingBackend instance)"
        )
    if not hasattr(backend, "count_columns"):
        raise ParameterError(
            f"backend {backend!r} does not implement CountingBackend"
            " (missing count_columns)"
        )
    return backend
