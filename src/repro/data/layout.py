"""Sampling layouts: one uniform shuffle of a store's rows, drawn once.

The paper samples by "sequential sampling on columnar layout": the rows
are shuffled once, and every later sample is a contiguous read. A
:class:`SamplingLayout` is that shuffle. It is a uniform permutation of
``[0, N)`` drawn from a *layout seed*, which depends on nothing but the
seed and ``N``, never on the data, so two stores of one ``N`` with one
layout seed share one layout whatever engine holds them. Its identity is
its *recipe* (the seed, and the bit generator's class and state just
before the draw) and the permutation's sha256.

The stores hold their columns in layout order:
:class:`~repro.data.mmap_store.MmapStore` writes its column files that
way at build time, and :class:`~repro.data.column_store.ColumnStore`
memoises layout-ordered copies of its logical columns, filled in
fixed-size chunks as reads first touch them. Position ``j`` of a
layout-ordered column holds row ``permutation[j]`` of the logical one.
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np

from repro.exceptions import ParameterError

__all__ = [
    "DEFAULT_LAYOUT_SEED",
    "SamplingLayout",
    "validate_layout_seed",
    "validate_seed",
]

#: The layout seed a store uses when none is named.
DEFAULT_LAYOUT_SEED = 0


def validate_seed(seed: int, name: str = "seed") -> int:
    """``seed`` as a non-negative int, as numpy's generators require."""
    try:
        value = operator.index(seed)
    except TypeError:
        raise ParameterError(
            f"{name} must be a non-negative integer, got {seed!r}"
        ) from None
    if value < 0:
        raise ParameterError(f"{name} must be >= 0, got {value}")
    return value


def validate_layout_seed(layout_seed: int | None) -> int:
    """``layout_seed`` as a non-negative int (``None``: the default seed)."""
    if layout_seed is None:
        return DEFAULT_LAYOUT_SEED
    return validate_seed(layout_seed, "layout_seed")


def _permutation_sha256(perm: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(perm, dtype=np.int64).tobytes()
    ).hexdigest()


class SamplingLayout:
    """A uniform permutation of ``[0, num_rows)`` drawn from ``seed``.

    Nothing ``N``-sized runs until :meth:`permutation` or :attr:`sha256`
    is first read; both are memoised. ``sha256`` may be given (a store
    manifest records it), in which case it is trusted as is and
    :meth:`permutation` checks a redraw against it.
    """

    def __init__(
        self, num_rows: int, seed: int | None = None, *, sha256: str | None = None
    ) -> None:
        self.num_rows = int(num_rows)
        self.seed = validate_layout_seed(seed)
        self._sha256 = sha256
        self._perm: np.ndarray | None = None

    def recipe(self) -> dict[str, object]:
        """The seed, and the bit generator's class and state before the draw."""
        bit_generator = np.random.default_rng(self.seed).bit_generator
        return {
            "seed": self.seed,
            "bit_generator": type(bit_generator).__name__,
            "state": bit_generator.state,
        }

    def permutation(self) -> np.ndarray:
        """The read-only permutation: layout position ``j`` holds row ``perm[j]``."""
        if self._perm is None:
            perm = np.random.default_rng(self.seed).permutation(self.num_rows)
            perm.setflags(write=False)
            if self._sha256 is not None and _permutation_sha256(perm) != self._sha256:
                raise ParameterError(
                    f"layout seed {self.seed} redraws a permutation whose sha256"
                    f" differs from the recorded {self._sha256[:12]}… (numpy's"
                    " permutation() changed); rebuild the store"
                )
            self._perm = perm
        return self._perm

    @property
    def sha256(self) -> str:
        """sha256 of the permutation's int64 bytes: the layout's identity."""
        if self._sha256 is None:
            self._sha256 = _permutation_sha256(self.permutation())
        return self._sha256
