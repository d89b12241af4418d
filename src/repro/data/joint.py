"""Incremental joint (pairwise) occurrence counting.

Empirical mutual information needs the joint counts ``n_{i,j}`` of record
values over a pair of attributes (paper Definition 1, joint entropy). A pair
``(i, j)`` with supports ``(u1, u2)`` is coded as the single integer
``i * u2 + j``, built in the narrowest integer type that holds
``u1 * u2 - 1`` (int16, int32 or int64); counting then reduces to the
same ``bincount`` pattern the marginal counters use.

Two storage strategies are used, switching automatically:

* **dense** — a flat ``int64`` array of length ``u1 * u2`` when that product
  is small enough (fast, cache friendly);
* **sparse** — a dictionary keyed by code when the cross product is large
  (the paper's datasets cap ``u_alpha`` at 1000, so ``u1 * u2`` can reach
  10^6; real pair supports are far smaller, which is exactly why the paper
  upper-bounds ``u_{t,a}`` by ``u_t * u_a`` instead of materialising it).

Only nonzero counts ever matter to entropy, so the sparse form loses
nothing.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ParameterError

__all__ = ["JointCounter", "DENSE_LIMIT"]

#: Largest ``u1 * u2`` for which a dense count array is allocated (8 MB).
DENSE_LIMIT = 1_000_000


def _code_dtype(product: int) -> type[np.signedinteger]:
    """Narrowest signed type holding every pair code ``0 .. product - 1``.

    The bounds are strict: ``u2`` itself becomes a scalar of this type,
    and numpy 2 refuses a Python ``32768`` as ``int16``. Codes plus
    ``bincount`` over 10^6 rows of two int8 columns take 2.9 ns per row
    with int16 codes, 3.5 with int32 and 4.1 with int64 (2-vCPU VM).
    """
    if product < 2**15:
        return np.int16
    if product < 2**31:
        return np.int32
    return np.int64


class JointCounter:
    """Joint occurrence counter over a pair of encoded attributes.

    Parameters
    ----------
    support_first, support_second:
        Support sizes ``u1``, ``u2`` of the two attributes.
    dense_limit:
        Threshold on ``u1 * u2`` above which sparse storage is used.
        Exposed mainly so tests can force either representation.
    """

    def __init__(
        self,
        support_first: int,
        support_second: int,
        *,
        dense_limit: int = DENSE_LIMIT,
    ) -> None:
        if support_first < 1 or support_second < 1:
            raise ParameterError(
                "support sizes must be >= 1, got"
                f" ({support_first}, {support_second})"
            )
        self._u1 = int(support_first)
        self._u2 = int(support_second)
        self._total = 0
        product = self._u1 * self._u2
        self._code_dtype = _code_dtype(product)
        self._dense: np.ndarray | None
        self._sparse: dict[int, int] | None
        if product <= dense_limit:
            self._dense = np.zeros(product, dtype=np.int64)
            self._sparse = None
        else:
            self._dense = None
            self._sparse = {}

    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        """Number of records counted so far."""
        return self._total

    @property
    def support_product(self) -> int:
        """``u1 * u2``, the worst-case number of distinct pairs."""
        return self._u1 * self._u2

    @property
    def is_dense(self) -> bool:
        """Whether counts are held in a flat array (vs. a hash map)."""
        return self._dense is not None

    # ------------------------------------------------------------------
    def update(self, first: np.ndarray, second: np.ndarray) -> None:
        """Add one batch of records' pair observations to the counter.

        For a dense counter this is :meth:`count` followed by
        :meth:`add`; a sparse counter merges the batch's unique codes
        into its map.
        """
        if self._dense is not None:
            self.add(self.count(first, second), first.size)
            return
        assert self._sparse is not None
        unique, counts = np.unique(self._codes(first, second), return_counts=True)
        sparse = self._sparse
        for code, count in zip(unique.tolist(), counts.tolist()):
            sparse[code] = sparse.get(code, 0) + count
        self._total += first.size

    def count(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """Dense joint counts of one batch, *not* added to the counter.

        Returns the flat ``bincount`` of the batch's pair codes, of
        length ``u1 * u2``: a delta that :meth:`add` can fold in later,
        or whose row and column sums count each attribute's values over
        the batch. Dense counters only.
        """
        if self._dense is None:
            raise ParameterError("count() needs a dense joint counter")
        return np.bincount(
            self._codes(first, second), minlength=self._dense.shape[0]
        )

    def add(self, delta: np.ndarray, records: int) -> None:
        """Fold in a :meth:`count` delta that covers ``records`` records."""
        if self._dense is None:
            raise ParameterError("add() needs a dense joint counter")
        self._dense += delta
        self._total += records

    def marginal(self, axis: int) -> np.ndarray:
        """Counts of one attribute's values over every record counted.

        ``axis=0`` gives the first attribute's counts (the row sums of
        the ``(u1, u2)`` table), ``axis=1`` the second's. Dense counters
        only: a marginal read this way is exact at :attr:`total` records
        whatever prefix the attribute's own counter sits at.
        """
        if self._dense is None:
            raise ParameterError("marginal() needs a dense joint counter")
        return self._dense.reshape(self._u1, self._u2).sum(axis=1 - axis)

    def _codes(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        if first.shape != second.shape:
            raise ParameterError(
                f"mismatched batch shapes {first.shape} vs {second.shape}"
            )
        # One buffer of the narrowest type that holds every code: the
        # product lands in it and ``second`` is added in place (store
        # dtypes are signed, so the add casts safely), instead of a
        # product, a cast and a sum.
        codes = np.multiply(first, self._u2, dtype=self._code_dtype)
        codes += second
        return codes

    def nonzero_counts(self) -> np.ndarray:
        """Return the nonzero joint counts ``n_{i,j}`` as a flat int64 array.

        Order is unspecified; entropy is permutation-invariant over counts.
        """
        if self._dense is not None:
            return self._dense[self._dense > 0]
        assert self._sparse is not None
        if not self._sparse:
            return np.zeros(0, dtype=np.int64)
        return np.fromiter(self._sparse.values(), dtype=np.int64, count=len(self._sparse))

    def flat_counts(self) -> np.ndarray:
        """The counts as one flat int64 array, zeros allowed.

        A dense counter's live table (callers must not mutate it), a
        sparse counter's nonzero counts. Entropy skips zero counts, so
        a batched entropy over this spares the mask and copy that
        :meth:`nonzero_counts` makes of a dense table.
        """
        if self._dense is not None:
            return self._dense
        return self.nonzero_counts()

    def distinct_pairs(self) -> int:
        """Number of distinct pairs observed so far (the true ``u_{t,a}``
        of the *sample*)."""
        if self._dense is not None:
            return int((self._dense > 0).sum())
        assert self._sparse is not None
        return len(self._sparse)

    # ------------------------------------------------------------------
    # Snapshot / restore (checkpointing substrate)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """In-memory state snapshot for checkpointing.

        Arrays are returned live for the dense form and materialised as
        parallel code/count arrays for the sparse form; the caller
        (:mod:`repro.durability.checkpoint`) owns serialisation. The
        returned arrays must not be mutated.
        """
        state: dict[str, object] = {
            "support_first": self._u1,
            "support_second": self._u2,
            "total": self._total,
        }
        if self._dense is not None:
            state["dense"] = self._dense
        else:
            assert self._sparse is not None
            codes = np.fromiter(
                self._sparse.keys(), dtype=np.int64, count=len(self._sparse)
            )
            counts = np.fromiter(
                self._sparse.values(), dtype=np.int64, count=len(self._sparse)
            )
            state["sparse_codes"] = codes
            state["sparse_counts"] = counts
        return state

    @classmethod
    def from_snapshot(cls, state: dict[str, object]) -> "JointCounter":
        """Rebuild a counter from a :meth:`snapshot` state.

        The storage form (dense vs. sparse) is taken from the snapshot
        itself, not re-derived from :data:`DENSE_LIMIT`, so a counter
        round-trips bit-identically even if the limit changes.
        """
        u1 = int(state["support_first"])  # type: ignore[arg-type]
        u2 = int(state["support_second"])  # type: ignore[arg-type]
        counter = cls(u1, u2, dense_limit=0)  # start sparse; overwrite below
        dense = state.get("dense")
        if dense is not None:
            arr = np.asarray(dense, dtype=np.int64)
            if arr.shape != (u1 * u2,):
                raise ParameterError(
                    f"dense joint snapshot has shape {arr.shape}, expected"
                    f" ({u1 * u2},)"
                )
            counter._dense = arr.copy()
            counter._sparse = None
        else:
            codes = np.asarray(state["sparse_codes"], dtype=np.int64)
            counts = np.asarray(state["sparse_counts"], dtype=np.int64)
            if codes.shape != counts.shape:
                raise ParameterError(
                    "sparse joint snapshot has mismatched codes/counts shapes"
                    f" {codes.shape} vs {counts.shape}"
                )
            counter._dense = None
            counter._sparse = dict(zip(codes.tolist(), counts.tolist()))
        counter._total = int(state["total"])  # type: ignore[arg-type]
        return counter

    def count_of(self, first_value: int, second_value: int) -> int:
        """Return the count of one specific pair (mainly for tests)."""
        if not (0 <= first_value < self._u1 and 0 <= second_value < self._u2):
            raise ParameterError(
                f"pair ({first_value}, {second_value}) outside supports"
                f" ({self._u1}, {self._u2})"
            )
        code = first_value * self._u2 + second_value
        if self._dense is not None:
            return int(self._dense[code])
        assert self._sparse is not None
        return self._sparse.get(code, 0)
