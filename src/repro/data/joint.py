"""Incremental joint (pairwise) occurrence counting.

Empirical mutual information needs the joint counts ``n_{i,j}`` of record
values over a pair of attributes (paper Definition 1, joint entropy). A pair
``(i, j)`` with supports ``(u1, u2)`` is coded as the single integer
``i * u2 + j``, built in the narrowest integer type that holds
``u1 * u2 - 1`` (int16, int32 or int64); counting then reduces to the
same ``bincount`` pattern the marginal counters use.

A query scores every candidate ``a`` from its joint counts with one
target ``t`` over a shared block of the prefix. Where the codes of the
target with *two* candidates ``a``, ``b`` fit int16 (``u_t * u_a * u_b
< 2^15``, :func:`packs_two`, the bound :func:`_code_dtype` draws for
pairs), :meth:`JointCounter.count_two` counts both pairs in one
``bincount`` over three-way codes and reads each pair's table off the
three-way table as a sum over the other candidate's axis;
``JointCounter.update(..., also=...)`` adds them to both counters. The
counts are exact integers, so this equals two pair counts bit for bit;
it reads the target's block once and runs one cast, one min/max scan and
one scatter instead of two of each.

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

from repro.exceptions import ParameterError, SchemaError

__all__ = ["JointCounter", "DENSE_LIMIT", "packs_two"]

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


_PAST_SUPPORT = (
    "a joint code lies outside the supports' product: a value is at or"
    " above its column's declared support size"
)


def _bincount(codes: np.ndarray, size: int) -> np.ndarray:
    """``bincount`` of codes that must all lie in ``0 .. size - 1``.

    A value at or above its column's declared support can push a code
    past the end, or wrap a narrow code below zero; either is a
    :class:`SchemaError`. (A code it moves to another cell inside the
    table is not seen here.)
    """
    try:
        counts = np.bincount(codes, minlength=size)
    except ValueError as exc:  # a negative code
        raise SchemaError(_PAST_SUPPORT) from exc
    if counts.shape[0] != size:
        raise SchemaError(_PAST_SUPPORT)
    return counts


def packs_two(target: int, first: int, second: int) -> bool:
    """Whether three-way codes over these supports stay int16.

    The bound under which :meth:`JointCounter.count_two` runs: wider
    codes would widen every buffer its pass writes.
    """
    return _code_dtype(target * first * second) is np.int16


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
    def update(
        self,
        first: np.ndarray,
        second: np.ndarray,
        *,
        also: tuple[JointCounter, np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Add one batch of records' pair observations to the counter.

        For a dense counter this is :meth:`count` followed by
        :meth:`add`; a sparse counter merges the batch's unique codes
        into its map. ``also=(other, other_first, other_second)`` updates
        ``other`` too, as ``other.update(other_first, other_second)``
        would, in the same pass (:meth:`count_two`).
        """
        if also is not None:
            mine, theirs = self.count_two(first, second, also)
            self.add(mine, first.size)
            also[0].add(theirs, first.size)
            return
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
        return _bincount(self._codes(first, second), self._dense.shape[0])

    def count_two(
        self,
        first: np.ndarray,
        second: np.ndarray,
        also: tuple[JointCounter, np.ndarray, np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dense counts of one batch for this counter and another, in one pass.

        ``also`` is ``(other, other_first, other_second)``. Returns
        ``(self.count(first, second), other.count(other_first,
        other_second))`` bit for bit. The two joints share one
        attribute, passed as the same array object to both; with
        ``third`` the other joint's array that is not shared (support
        ``u3``), the batch is coded as
        ``(first * u2 + second) * u3 + third`` by Horner's rule in one
        int16 buffer and counted by one ``bincount``, and each counter's
        table is a sum over the three-way table. Both counters must be
        dense and the three supports must pass :func:`packs_two`.
        """
        other, other_first, other_second = also
        for axis, shared in enumerate((first, second)):
            if other_first is shared or other_second is shared:
                break
        else:
            raise ParameterError("count_two() needs joints that share an attribute")
        flip = other_second is shared  # the other table is (third, shared)
        third = other_first if flip else other_second
        sizes = (other._u2, other._u1) if flip else (other._u1, other._u2)
        if sizes[0] != (self._u1, self._u2)[axis]:
            raise ParameterError(
                f"joints share an attribute of supports {sizes[0]} and"
                f" {(self._u1, self._u2)[axis]}"
            )
        u1, u2, u3 = self._u1, self._u2, sizes[1]
        if self._dense is None or other._dense is None or not packs_two(u1, u2, u3):
            raise ParameterError(
                "count_two() needs two dense joints whose three supports"
                f" {(u1, u2, u3)} pass packs_two()"
            )
        if not first.shape == second.shape == third.shape:
            raise ParameterError(
                f"mismatched batch shapes {first.shape}, {second.shape},"
                f" {third.shape}"
            )
        codes = np.multiply(first, u2, dtype=np.int16)
        codes += second
        codes *= u3
        codes += third
        cube = _bincount(codes, u1 * u2 * u3).reshape(u1, u2, u3)
        theirs = cube.sum(axis=1 - axis)
        return cube.sum(axis=2).ravel(), (theirs.T if flip else theirs).ravel()

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
