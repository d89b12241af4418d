"""Sampling-without-replacement substrate (sampling layout + run offset).

The paper treats a uniformly random subset :math:`\\mathcal{S}` of size ``M``
as *the first M records after a random shuffle* of the input dataset
(Section 2.2), and gets its speed from "sequential sampling on columnar
layout": the rows are shuffled once, and every later sample is a
contiguous read. All four SWOPE algorithms, as well as the EntropyRank /
EntropyFilter baselines, grow the sample by extending a prefix — so the
sample of a later iteration always contains the sample of every earlier
iteration, and the martingale argument of Section 3.1 applies.

:class:`PrefixSampler` implements this substrate:

* the store's :class:`~repro.data.layout.SamplingLayout` — one uniform
  shuffle of its rows, drawn once from a data-free layout seed and kept
  with the store — plus a per-run *offset* ``r`` drawn from the run
  seed. A run's sample of size ``M`` is layout positions
  ``r … r + M − 1``, wrapping at ``N``, so every block a run reads is at
  most two contiguous slices of each layout-ordered column: no
  per-run permutation and no gather;
* per-attribute occurrence counters ``m_i`` maintained *incrementally*
  (extending the prefix from ``M`` to ``M'`` touches only the ``M' - M``
  new records of each requested attribute);
* pairwise joint counters (for empirical mutual information) maintained the
  same way through :class:`repro.data.joint.JointCounter`; a marginal at
  a dense joint's prefix is read off that joint's running total instead
  of being counted again, and within a plan a marginal extension counts
  the joint deltas a later MI query will need from the block it reads
  anyway (:meth:`PrefixSampler.expect_joints`);
* an exact account of work done (``cells_scanned``) so experiments can
  report a machine-independent cost next to wall-clock time.

Each run's sample is uniform because the layout is a uniform
permutation independent of the data, and the offset is independent of
both. Runs over one store share its layout, so their failure events are
correlated, as with the paper's preprocessing shuffle (docs/THEORY.md).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import Protocol, TypeVar

import numpy as np

from repro.data.backends import CountingBackend, resolve_backend
from repro.data.column_store import ColumnSource
from repro.data.joint import JointCounter, packs_two
from repro.data.layout import validate_seed
from repro.exceptions import CheckpointMismatchError, ParameterError, SchemaError

__all__ = ["CounterCache", "PrefixSampler"]

_Job = TypeVar("_Job")


class CounterCache(Protocol):
    """Read-side protocol for warm-starting counters from a prior run.

    Implemented by :class:`repro.cache.CachePartition`; defined here so
    the sampler depends only on the shape, not on the cache subsystem.
    Both methods return ``None`` (no usable entry) or a ``(prefix,
    counter)`` pair where ``counted < prefix <= num_rows`` and the
    counter is owned by the caller (safe to extend in place).
    """

    def best_marginal(
        self, name: str, counted: int, num_rows: int
    ) -> tuple[int, np.ndarray] | None:
        """Cached marginal counter for ``name`` within ``(counted, num_rows]``."""
        ...

    def best_joint(
        self, first: str, second: str, counted: int, num_rows: int
    ) -> tuple[int, JointCounter] | None:
        """Cached joint counter for the canonical pair ``(first, second)``."""
        ...


def _in_twos(
    jobs: Sequence[_Job], packs: Callable[[_Job, _Job], bool]
) -> Iterator[Sequence[_Job]]:
    """``jobs`` in order, one at a time or two adjacent ones that pack."""
    index = 0
    while index < len(jobs):
        pair = index + 1 < len(jobs) and packs(jobs[index], jobs[index + 1])
        width = 2 if pair else 1
        yield jobs[index : index + width]
        index += width


def _draw_offset(seed: int | np.random.Generator | None, num_rows: int) -> int:
    """The run's start position in the layout, drawn from the run seed."""
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = np.random.default_rng(None if seed is None else validate_seed(seed))
    return int(rng.integers(num_rows)) if num_rows else 0


class PrefixSampler:
    """A run's prefix view of a :class:`~repro.data.column_store.ColumnSource`
    with incremental counts.

    Parameters
    ----------
    store:
        The dataset to sample from.
    seed:
        Seed or generator for the run's offset into the store's sampling
        layout. Queries made with the same seed and layout on the same
        store are fully reproducible.
    layout_seed:
        Seed of the store's sampling layout (``None``: the store's own,
        which for an in-memory store is the default seed). An mmap store
        accepts only the seed it was built with.
    backend:
        Counting backend: ``None`` or ``"numpy"`` for
        :class:`~repro.data.backends.NumpyBackend`, or any
        :class:`~repro.data.backends.CountingBackend` instance. Answers
        depend only on the counts it returns.

    Notes
    -----
    Counters are created lazily per attribute (and per attribute pair), so
    a query over a small candidate set never pays for unrelated columns.
    Nothing ``N``-sized runs at construction.
    """

    def __init__(
        self,
        store: ColumnSource,
        seed: int | np.random.Generator | None = None,
        *,
        layout_seed: int | None = None,
        backend: str | CountingBackend | None = None,
        counter_cache: CounterCache | None = None,
    ) -> None:
        self._store = store
        self._n = store.num_rows
        self._counter_cache = counter_cache
        self._cells_saved = 0
        self._layout = store.sampling_layout(layout_seed)
        self._offset = _draw_offset(seed, self._n)
        # attribute -> (rows_counted, counts[u_alpha])
        self._marginals: dict[str, tuple[int, np.ndarray]] = {}
        # (attr_a, attr_b) -> (rows_counted, JointCounter)
        self._joints: dict[tuple[str, str], tuple[int, JointCounter]] = {}
        self._cells_scanned = 0
        self._backend = resolve_backend(backend)
        # name -> the dense joint most recently counted with name. At
        # that joint's stop, name's marginal is read off its running
        # total (see _derived_marginal).
        self._derived: dict[str, tuple[str, str]] = {}
        # Joints a running plan's later queries will count, as
        # candidate -> targets (see expect_joints), and the joint deltas
        # counted ahead for them: pair -> (start, stop, delta).
        self._expected: dict[str, dict[str, None]] = {}
        self._held: dict[tuple[str, str], tuple[int, int, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def store(self) -> ColumnSource:
        """The underlying dataset."""
        return self._store

    @property
    def num_rows(self) -> int:
        """``N``, the number of records in the underlying dataset."""
        return self._n

    @property
    def backend(self) -> CountingBackend:
        """The counting backend executing this sampler's batched counts."""
        return self._backend

    @property
    def cells_scanned(self) -> int:
        """Total attribute values read so far (machine-independent cost).

        Every record of every attribute contributes one cell each time it
        is consumed by a counter; a joint counter over a pair consumes two
        cells per record, matching the cost of reading both columns.
        """
        return self._cells_scanned

    @property
    def cells_saved(self) -> int:
        """Cells *not* scanned because a counter cache served the prefix.

        The warm-start complement of :attr:`cells_scanned`: every cached
        row of every attribute that a counter jumped over instead of
        counting, at the same per-cell accounting (two cells per row for
        a joint pair).
        """
        return self._cells_saved

    def attach_counter_cache(self, cache: CounterCache | None) -> None:
        """Set (or clear) the warm-start source consulted by batch counts."""
        self._counter_cache = cache

    def shuffle_fingerprint(self) -> str:
        """Identity of the row order this sampler scans in.

        The layout's sha256 and the run's offset, as ``"{sha256}+{r}"``.
        Counters are a pure function of (dataset, layout, offset, prefix
        length), so cache partitions key on this next to the dataset
        fingerprint. An mmap store's sha256 comes from its manifest; an
        in-memory store hashes its layout once and memoises it.
        """
        return f"{self._layout.sha256}+{self._offset}"

    @property
    def counted_attributes(self) -> tuple[str, ...]:
        """Attributes holding a live marginal counter, sorted by name.

        Shared-cost introspection for the plan executor and the CLI's
        batch accounting: retained counters are exactly the counts later
        queries get for free.
        """
        return tuple(sorted(self._marginals))

    def counted_prefix(self, name: str) -> int:
        """Rows counted so far for ``name``'s marginal (0 if never counted)."""
        entry = self._marginals.get(name)
        return entry[0] if entry is not None else 0

    def cells_to_extend(
        self,
        marginals: Iterable[str],
        joints: Iterable[tuple[str, str]],
        num_rows: int,
    ) -> int:
        """Cells that counting these counters up to ``num_rows`` bills.

        One cell per row for each marginal and two for each joint pair,
        from the counter's current prefix (counters already past
        ``num_rows`` bill nothing). A held delta or a derived marginal
        bills what a read would; a counter cache is not consulted, so
        a cached prefix can only lower the cells actually billed.
        """
        cells = sum(
            max(0, num_rows - self.counted_prefix(name)) for name in set(marginals)
        )
        for pair in set(joints):
            key = pair if pair[0] <= pair[1] else (pair[1], pair[0])
            state = self._joints.get(key)
            cells += 2 * max(0, num_rows - (0 if state is None else state[0]))
        return cells

    @property
    def counted_frontier(self) -> int:
        """The largest prefix any marginal or joint counter has reached.

        Prefixes only grow, so a query that starts below it fails as
        soon as it asks one of the counters sitting there to shrink.
        """
        prefixes = [counted for counted, _ in self._marginals.values()]
        prefixes.extend(counted for counted, _ in self._joints.values())
        return max(prefixes, default=0)

    # ------------------------------------------------------------------
    # Snapshot / restore (checkpointing substrate)
    # ------------------------------------------------------------------
    def state_snapshot(self) -> dict[str, object]:
        """In-memory snapshot of the sampler's resumable state.

        Captures everything a resumed process needs to continue the scan
        bit-identically: the row order as ``shuffle`` —
        ``{"layout_seed", "layout", "offset"}``, the layout's seed and
        sha256 and the run's offset — every
        marginal counter with its counted prefix, every
        joint counter (via :meth:`~repro.data.joint.JointCounter.snapshot`),
        and the cumulative ``cells_scanned`` meter, which downstream
        stats and trace events are derived from. Arrays are returned
        live; serialisation belongs to
        :mod:`repro.durability.checkpoint`. The returned structures must
        not be mutated.
        """
        return {
            "num_rows": self._n,
            "shuffle": {
                "layout_seed": self._layout.seed,
                "layout": self._layout.sha256,
                "offset": self._offset,
            },
            "cells_scanned": self._cells_scanned,
            "cells_saved": self._cells_saved,
            "marginals": {
                name: {"counted": counted, "counts": counts}
                for name, (counted, counts) in self._marginals.items()
            },
            "joints": [
                {
                    "first": key[0],
                    "second": key[1],
                    "counted": counted,
                    "counter": counter.snapshot(),
                }
                for key, (counted, counter) in self._joints.items()
            ],
        }

    @classmethod
    def from_state(
        cls,
        store: ColumnSource,
        state: dict[str, object],
        *,
        backend: str | CountingBackend | None = None,
    ) -> "PrefixSampler":
        """Rebuild a sampler over ``store`` from a :meth:`state_snapshot`.

        The restored sampler continues the scan exactly where the
        snapshot left it: same layout, same offset, same counted
        prefixes, same ``cells_scanned`` meter. A store whose layout
        under the recorded seed has another sha256 (another numpy, a
        store laid out differently) raises
        :class:`~repro.exceptions.CheckpointMismatchError`. Structural
        mismatches against ``store`` (row count, counter lengths vs.
        support sizes, out-of-range prefixes) raise
        :class:`~repro.exceptions.ParameterError` — the checkpoint
        layer's dataset fingerprint should make these unreachable, so
        they guard against hand-edited state only.
        """
        num_rows = int(state["num_rows"])  # type: ignore[arg-type]
        if num_rows != store.num_rows:
            raise ParameterError(
                f"sampler snapshot covers {num_rows} rows but the store has"
                f" {store.num_rows}"
            )
        shuffle = state["shuffle"]
        assert isinstance(shuffle, Mapping)
        offset = int(shuffle["offset"])
        if not 0 <= offset < num_rows:
            raise ParameterError(
                f"sampler snapshot offset {offset} is outside [0, {num_rows})"
            )
        try:
            sampler = cls(
                store, layout_seed=int(shuffle["layout_seed"]), backend=backend
            )
            layout_sha256 = sampler._layout.sha256
        except ParameterError as exc:
            raise CheckpointMismatchError(
                f"cannot rebuild the snapshot's sampling layout: {exc}"
            ) from exc
        if layout_sha256 != shuffle["layout"]:
            raise CheckpointMismatchError(
                f"the store's sampling layout under seed {shuffle['layout_seed']}"
                " does not match the snapshot's recorded sha256 (a numpy"
                " upgrade may have changed permutation()); refusing to resume"
                " against a different row order"
            )
        sampler._offset = offset
        marginals = state["marginals"]
        assert isinstance(marginals, dict)
        for name, entry in marginals.items():
            if name not in store:
                raise SchemaError(f"snapshot counts unknown attribute {name!r}")
            counted = int(entry["counted"])
            counts = np.asarray(entry["counts"], dtype=np.int64)
            support = store.support_size(name)
            if counts.shape != (support,):
                raise ParameterError(
                    f"marginal snapshot for {name!r} has shape {counts.shape},"
                    f" expected ({support},)"
                )
            if not 0 <= counted <= num_rows:
                raise ParameterError(
                    f"marginal snapshot for {name!r} counts {counted} rows,"
                    f" outside [0, {num_rows}]"
                )
            sampler._marginals[name] = (counted, counts.copy())
        joints = state["joints"]
        assert isinstance(joints, list)
        for entry in joints:
            first, second = str(entry["first"]), str(entry["second"])
            if first not in store or second not in store:
                raise SchemaError(
                    f"snapshot counts unknown attribute pair ({first!r},"
                    f" {second!r})"
                )
            counted = int(entry["counted"])
            if not 0 <= counted <= num_rows:
                raise ParameterError(
                    f"joint snapshot for ({first!r}, {second!r}) counts"
                    f" {counted} rows, outside [0, {num_rows}]"
                )
            counter = JointCounter.from_snapshot(entry["counter"])
            sampler._joints[(first, second)] = (counted, counter)
        sampler._cells_scanned = int(state["cells_scanned"])  # type: ignore[arg-type]
        sampler._cells_saved = int(state.get("cells_saved", 0))  # type: ignore[arg-type]
        return sampler

    def shuffled_prefix(self, num_rows: int) -> np.ndarray:
        """Return the row indices making up the first ``num_rows`` samples.

        Logical row indices of the store (``N``-sized work: for tests
        and diagnostics, never on the counting path).
        """
        self._check_prefix(num_rows)
        positions = (self._offset + np.arange(num_rows)) % self._n
        return self._layout.permutation()[positions]

    def _check_prefix(self, num_rows: int) -> None:
        if not 0 < num_rows <= self._n:
            raise ParameterError(
                f"prefix size must be in [1, {self._n}], got {num_rows}"
            )

    def _slices(self, start: int, stop: int) -> list[slice]:
        """Layout positions of prefix positions ``start:stop``: one or two slices."""
        low = (self._offset + start) % self._n
        high = low + (stop - start)
        if high <= self._n:
            return [slice(low, high)]
        return [slice(low, self._n), slice(0, high - self._n)]

    def _column_block(self, name: str, start: int, stop: int) -> np.ndarray:
        """Return the encoded values of rows ``start:stop`` of the prefix."""
        read = self._store.layout_column
        seed = self._layout.seed
        blocks = [
            read(name, rows.start, rows.stop, seed)[rows]
            for rows in self._slices(start, stop)
        ]
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)

    # ------------------------------------------------------------------
    # Marginal counts
    # ------------------------------------------------------------------
    def marginal_counts(self, name: str, num_rows: int) -> np.ndarray:
        """Occurrence counts ``m_i`` of ``name`` over the first ``num_rows`` samples.

        The returned array is the sampler's live counter — callers must not
        mutate it. Extending the prefix is incremental: only the new block
        of records is read.

        Raises
        ------
        ParameterError
            If ``num_rows`` is smaller than a prefix already counted for
            this attribute (prefixes only grow) or out of range.
        """
        return self.marginal_counts_batch((name,), num_rows)[name]

    def marginal_counts_batch(
        self, names: Sequence[str], num_rows: int
    ) -> dict[str, np.ndarray]:
        """Occurrence counts of several attributes over the same prefix.

        The batched form of :meth:`marginal_counts` (which delegates
        here): one backend pass per contiguous slice of the layout (one,
        or two where the run wraps at ``N``) counts every requested
        column. Two kinds of column skip the backend:

        * a column whose most recent dense joint (see
          :meth:`joint_counts_batch`) sits at ``num_rows`` is read off
          that joint's running total, whatever its own prefix;
        * a column one of whose :meth:`expect_joints` pairs has an
          existing dense joint at exactly the column's prefix is read
          off that pair's joint delta over the same block, counted here
          from the column's block and the target's (read once per
          target and block), and the delta is held for the later query
          that counts the joint (:meth:`joint_counts_batch` adds it).

        Counts, cost accounting (``num_rows - start`` cells per column;
        a held delta bills nothing until its joint takes it), and error
        behaviour are identical to issuing the equivalent scalar
        calls — attributes whose counters are at different prefixes
        each extend only their own missing block.

        Returns the live counter arrays keyed by name (callers must not
        mutate them); duplicate names collapse to one entry.
        """
        self._check_prefix(num_rows)
        ordered: list[str] = []
        seen: set[str] = set()
        for name in names:
            if name not in seen:
                seen.add(name)
                ordered.append(name)
        starts: dict[str, int] = {}
        counters: dict[str, np.ndarray] = {}
        for name in ordered:
            state = self._marginals.get(name)
            if state is None:
                counted = 0
                counts = np.zeros(self._store.support_size(name), dtype=np.int64)
            else:
                counted, counts = state
            if num_rows < counted:
                raise ParameterError(
                    f"prefix for {name!r} already at {counted} rows; cannot"
                    f" shrink to {num_rows} (prefix samples only grow)"
                )
            if self._counter_cache is not None and counted < num_rows:
                served = self._counter_cache.best_marginal(
                    name, counted, num_rows
                )
                if served is not None:
                    # Jump the counter to the cached prefix; the block
                    # below then extends only the remaining rows.
                    counted, counts = served
                    self._cells_saved += counted - (
                        0 if state is None else state[0]
                    )
                    self._marginals[name] = (counted, counts)
            starts[name] = counted
            counters[name] = counts
        # Group extensions by their start offset (counters at different
        # prefixes need different blocks) so each block is read once.
        by_start: dict[int, list[str]] = {}
        for name in ordered:
            start = starts[name]
            if start == num_rows:
                continue
            total = self._derived_marginal(name, num_rows)
            if total is None:
                by_start.setdefault(start, []).append(name)
                continue
            counters[name][...] = total
            self._cells_scanned += num_rows - start
            self._marginals[name] = (num_rows, counters[name])
        for start, group in by_start.items():
            deltas = (
                self._count_expected_joints(group, start, num_rows)
                if self._expected and self._joints
                else {}
            )
            rest = [name for name in group if name not in deltas]
            read, seed = self._store.layout_column, self._layout.seed
            for rows in self._slices(start, num_rows) if rest else ():
                fresh = self._backend.count_columns(
                    [read(name, rows.start, rows.stop, seed) for name in rest],
                    [counters[name].shape[0] for name in rest],
                    rows,
                )
                for name, counts in zip(rest, fresh):
                    if counts.shape != counters[name].shape:
                        raise SchemaError(
                            f"{name!r} holds a value at or above its declared"
                            f" support size {counters[name].shape[0]}"
                        )
                    # a block that wraps at N is counted in two slices
                    deltas[name] = deltas[name] + counts if name in deltas else counts
            for name in group:
                counters[name] += deltas[name]
                self._cells_scanned += num_rows - start
                self._marginals[name] = (num_rows, counters[name])
        return counters

    def _derived_marginal(self, name: str, num_rows: int) -> np.ndarray | None:
        """``name``'s counts over the first ``num_rows`` rows off a dense
        joint's running total, or ``None`` when no dense joint with
        ``name`` sits at ``num_rows``."""
        key = self._derived.get(name)
        if key is None:
            return None
        state = self._joints.get(key)
        if state is None or state[0] != num_rows or not state[1].is_dense:
            return None
        return state[1].marginal(0 if key[0] == name else 1)

    def _count_expected_joints(
        self, group: Sequence[str], start: int, stop: int
    ) -> dict[str, np.ndarray]:
        """Count expected joints over a block ``group`` is extending over.

        For each column of ``group`` with an expected pair whose dense
        joint sits at exactly ``start``, count the pair's joint delta
        over ``[start, stop)`` from the column's block and the target's,
        hold it for the later query, and return the marginal deltas of
        both attributes read off it (first pair wins). Two adjacent
        pairs of one target that pack are counted in one pass
        (:meth:`JointCounter.count_two`, per layout slice); any other
        pair from the target's block, read once per target. Joints that
        do not exist yet are never started here.
        """
        # (target, candidate, key, counter) of each joint to count
        jobs: list[tuple[str, str, tuple[str, str], JointCounter]] = []
        for name in group:
            for target in self._expected.get(name, {}):
                key = (target, name) if target <= name else (name, target)
                state = self._joints.get(key)
                if state is None or state[0] != start or not state[1].is_dense:
                    continue
                jobs.append((target, name, key, state[1]))
        target_blocks: dict[str, np.ndarray] = {}
        # the last candidate block read for a pair counted alone
        named: tuple[str, np.ndarray] | None = None
        deltas: dict[str, np.ndarray] = {}
        for some in _in_twos(
            jobs, lambda a, b: a[0] == b[0] and self._packs(a[0], a[1], b[1])
        ):
            target, name, key, counter = some[0]
            if len(some) == 2:
                counts: tuple[np.ndarray, ...] = ()
                for pair, other in self._slice_pairs(
                    target, (key, some[1][2]), start, stop
                ):
                    two = counter.count_two(*pair, (some[1][3], *other))
                    counts = tuple(map(np.add, counts, two)) if counts else two
            else:
                block_target = target_blocks.get(target)
                if block_target is None:
                    block_target = self._column_block(target, start, stop)
                    target_blocks[target] = block_target
                if named is None or named[0] != name:
                    named = (name, self._column_block(name, start, stop))
                if key[0] == target:
                    counts = (counter.count(block_target, named[1]),)
                else:
                    counts = (counter.count(named[1], block_target),)
            for (_, _, key, _), delta in zip(some, counts):
                self._held[key] = (start, stop, delta)
                table = delta.reshape(self._store.support_size(key[0]), -1)
                for axis, side in ((1, key[0]), (0, key[1])):
                    if side not in deltas:
                        deltas[side] = table.sum(axis=axis)
        # only columns of this group extend over [start, stop)
        return {name: deltas[name] for name in group if name in deltas}

    # ------------------------------------------------------------------
    # Joint counts
    # ------------------------------------------------------------------
    def joint_counts(self, first: str, second: str, num_rows: int) -> JointCounter:
        """Joint occurrence counts of ``(first, second)`` over the prefix.

        The pair key is order-sensitive only in naming; ``(a, b)`` and
        ``(b, a)`` share one counter internally (joint entropy is
        symmetric).
        """
        return self.joint_counts_batch(first, (second,), num_rows)[second]

    def joint_counts_batch(
        self, first: str, seconds: Sequence[str], num_rows: int
    ) -> dict[str, JointCounter]:
        """Joint counts of ``first`` with each of ``seconds`` over the prefix.

        The batched form of :meth:`joint_counts` (which delegates here).
        Two adjacent dense pairs that extend from the same prefix and
        pack (:func:`~repro.data.joint.packs_two`) are counted in one
        pass (``JointCounter.update(..., also=...)``, one call per
        layout slice); every other pair shares the block of
        ``first`` values read once per distinct start offset. Counts,
        cost accounting, and the errors raised are identical to the
        equivalent scalar calls; a batch that raises leaves the pairs it
        had resolved at their current prefix.

        A pair at the start of a delta that
        :meth:`marginal_counts_batch` held for it takes that delta
        (billed ``2 (stop - start)`` cells, as a read would be) and
        reads only what lies beyond its stop; a held delta that no
        longer starts at the pair's prefix (a counter cache moved it) is
        dropped. Each dense pair also becomes the marginal source of both
        its attributes at its new prefix, so a following
        :meth:`marginal_counts_batch` reads their counts off the joint's
        running total instead of counting those columns again. Sparse
        joints serve no marginals.

        Returns the live counters keyed by the second attribute's name;
        duplicate names collapse to one entry.
        """
        self._check_prefix(num_rows)
        # (second, key, counted, counter) of each pair left to count
        jobs: list[tuple[str, tuple[str, str], int, JointCounter]] = []
        out: dict[str, JointCounter] = {}
        for second in seconds:
            if second in out:
                continue
            if first == second:
                raise SchemaError(
                    f"joint counts of an attribute with itself ({first!r}) are"
                    " the marginal counts; use marginal_counts()"
                )
            key = (first, second) if first <= second else (second, first)
            state = self._joints.get(key)
            if state is None:
                counted = 0
                counter = JointCounter(
                    self._store.support_size(key[0]),
                    self._store.support_size(key[1]),
                )
            else:
                counted, counter = state
            if num_rows < counted:
                raise ParameterError(
                    f"prefix for pair {key!r} already at {counted} rows; cannot"
                    f" shrink to {num_rows}"
                )
            if self._counter_cache is not None and counted < num_rows:
                served_joint = self._counter_cache.best_joint(
                    key[0], key[1], counted, num_rows
                )
                if served_joint is not None:
                    previous = counted
                    counted, counter = served_joint
                    self._cells_saved += 2 * (counted - previous)
            held = self._held.pop(key, None)
            if held is not None and held[0] == counted and held[1] <= num_rows:
                counter.add(held[2], held[1] - counted)
                self._cells_scanned += 2 * (held[1] - counted)
                counted = held[1]
            # Entered now, in ``seconds`` order (the order checkpoints
            # list joints in), and moved to ``num_rows`` once counted.
            self._joints[key] = (counted, counter)
            if num_rows > counted:
                jobs.append((second, key, counted, counter))
            if counter.is_dense:
                self._derived[first] = self._derived[second] = key
            out[second] = counter
        # first-column blocks read so far, keyed by start offset
        first_blocks: dict[int, np.ndarray] = {}
        for some in _in_twos(
            jobs,
            lambda a, b: a[2] == b[2]
            and a[3].is_dense
            and b[3].is_dense
            and self._packs(first, a[0], b[0]),
        ):
            second, key, counted, counter = some[0]
            if len(some) == 2:
                _, key_b, _, counter_b = some[1]
                for pair, other in self._slice_pairs(
                    first, (key, key_b), counted, num_rows
                ):
                    counter.update(*pair, also=(counter_b, *other))
            else:
                block_first = first_blocks.get(counted)
                if block_first is None:
                    block_first = self._column_block(first, counted, num_rows)
                    first_blocks[counted] = block_first
                block_second = self._column_block(second, counted, num_rows)
                if key[0] == first:
                    counter.update(block_first, block_second)
                else:
                    counter.update(block_second, block_first)
            for _, key, _, counter in some:
                self._cells_scanned += 2 * (num_rows - counted)
                self._joints[key] = (num_rows, counter)
        return out

    def _packs(self, target: str, first: str, second: str) -> bool:
        """Whether ``target``'s joints with both candidates count in one pass."""
        support = self._store.support_size
        return packs_two(support(target), support(first), support(second))

    def _slice_pairs(
        self,
        target: str,
        keys: tuple[tuple[str, str], tuple[str, str]],
        start: int,
        stop: int,
    ) -> Iterator[tuple[tuple[np.ndarray, np.ndarray], ...]]:
        """Each key's two blocks, in key order, per slice of ``[start, stop)``.

        Both keys pair ``target`` with a candidate, and the target's
        block is one array shared by both pairs, which is how
        :meth:`JointCounter.count_two` finds the attribute they share. A
        block that wraps at ``N`` is never concatenated.
        """
        names = [target] + [key[1] if key[0] == target else key[0] for key in keys]
        read, seed = self._store.layout_column, self._layout.seed
        for rows in self._slices(start, stop):
            block = {
                name: read(name, rows.start, rows.stop, seed)[rows] for name in names
            }
            yield tuple((block[key[0]], block[key[1]]) for key in keys)

    # ------------------------------------------------------------------
    # Joints counted ahead for a plan's later queries
    # ------------------------------------------------------------------
    def expect_joints(self, pairs: Iterable[tuple[str, str]]) -> None:
        """Name the ``(target, candidate)`` joints later queries will count.

        :class:`repro.core.plan.PlanExecutor` calls this before each
        query of a plan with the pairs of the plan's later MI queries.
        While a pair is expected, a :meth:`marginal_counts_batch` that
        extends the candidate from exactly the prefix the pair's dense
        joint sits at counts the joint's delta over that block from the
        candidate's block it reads anyway, and holds it for the later
        query. Replaces the previous expectation; deltas already held
        stay until :meth:`discard_held_joints`.
        """
        self._expected = {}
        for target, candidate in pairs:
            self._expected.setdefault(candidate, {})[target] = None

    def discard_held_joints(self) -> None:
        """Forget the expected joints and every delta held for them.

        Held deltas live only inside one plan: they never reach
        :meth:`state_snapshot`, checkpoints or a counter cache, so a
        resumed or cache-warmed run simply counts those blocks again.
        """
        self._expected = {}
        self._held.clear()
