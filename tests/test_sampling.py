"""Unit tests for :mod:`repro.data.sampling` (the prefix sampler)."""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.budget import QueryBudget
from repro.core.plan import PlanExecutor, QuerySpec, plan_queries
from repro.data import sampling
from repro.data.backends import NumpyBackend
from repro.data.column_store import ColumnStore
from repro.data.joint import JointCounter
from repro.data.sampling import PrefixSampler
from repro.exceptions import ParameterError, QueryInterruptedError, SchemaError


@pytest.fixture
def store(rng):
    n = 2000
    return ColumnStore(
        {
            "x": rng.integers(0, 10, n),
            "y": rng.integers(0, 5, n),
            "z": rng.integers(0, 3, n),
        }
    )


class TestShuffle:
    def test_prefix_is_permutation_prefix(self, store):
        sampler = PrefixSampler(store, seed=1)
        prefix_small = sampler.shuffled_prefix(10)
        prefix_big = sampler.shuffled_prefix(50)
        assert np.array_equal(prefix_big[:10], prefix_small)
        assert len(set(prefix_big.tolist())) == 50  # without replacement

    def test_same_seed_same_shuffle(self, store):
        a = PrefixSampler(store, seed=7).shuffled_prefix(100)
        b = PrefixSampler(store, seed=7).shuffled_prefix(100)
        assert np.array_equal(a, b)

    def test_shuffle_is_read_only_and_hashed_once(self, store, monkeypatch):
        from repro.data import sampling

        calls: list[int] = []
        real = sampling._permutation_sha256

        def counting(perm):
            calls.append(len(perm))
            return real(perm)

        monkeypatch.setattr(sampling, "_permutation_sha256", counting)
        sampler = PrefixSampler(store, seed=3)
        first = sampler.shuffle_fingerprint()
        sampler.state_snapshot()
        assert sampler.shuffle_fingerprint() == first
        assert calls == [store.num_rows]
        with pytest.raises(ValueError):
            sampler.shuffled_prefix(10)[0] = 0

    def test_different_seeds_differ(self, store):
        a = PrefixSampler(store, seed=1).shuffled_prefix(100)
        b = PrefixSampler(store, seed=2).shuffled_prefix(100)
        assert not np.array_equal(a, b)

    def test_generator_accepted(self, store):
        sampler = PrefixSampler(store, seed=np.random.default_rng(3))
        assert sampler.shuffled_prefix(5).shape == (5,)

    def test_sequential_mode_is_identity(self, store):
        sampler = PrefixSampler(store, sequential=True)
        assert np.array_equal(sampler.shuffled_prefix(10), np.arange(10))

    def test_prefix_bounds_checked(self, store):
        sampler = PrefixSampler(store, seed=1)
        with pytest.raises(ParameterError):
            sampler.shuffled_prefix(0)
        with pytest.raises(ParameterError):
            sampler.shuffled_prefix(store.num_rows + 1)


class TestMarginalCounts:
    def test_counts_match_direct_count(self, store):
        sampler = PrefixSampler(store, seed=5)
        m = 300
        counts = sampler.marginal_counts("x", m)
        rows = sampler.shuffled_prefix(m)
        expected = np.bincount(store.column("x")[rows], minlength=10)
        assert np.array_equal(counts, expected)
        assert counts.sum() == m

    def test_incremental_extension_matches_fresh_count(self, store):
        sampler = PrefixSampler(store, seed=5)
        sampler.marginal_counts("x", 100)
        counts = sampler.marginal_counts("x", 700)
        fresh = PrefixSampler(store, seed=5).marginal_counts("x", 700)
        assert np.array_equal(counts, fresh)

    def test_full_prefix_equals_population_counts(self, store):
        sampler = PrefixSampler(store, seed=5)
        counts = sampler.marginal_counts("y", store.num_rows)
        assert np.array_equal(counts, store.value_counts("y"))

    def test_shrinking_prefix_rejected(self, store):
        sampler = PrefixSampler(store, seed=5)
        sampler.marginal_counts("x", 500)
        with pytest.raises(ParameterError, match="cannot shrink"):
            sampler.marginal_counts("x", 100)

    def test_same_prefix_twice_no_extra_cost(self, store):
        sampler = PrefixSampler(store, seed=5)
        sampler.marginal_counts("x", 500)
        cost = sampler.cells_scanned
        sampler.marginal_counts("x", 500)
        assert sampler.cells_scanned == cost

    def test_cells_accounting(self, store):
        sampler = PrefixSampler(store, seed=5)
        sampler.marginal_counts("x", 100)
        sampler.marginal_counts("y", 200)
        sampler.marginal_counts("x", 400)
        assert sampler.cells_scanned == 100 + 200 + 300


class TestJointCounts:
    def test_joint_counts_match_direct(self, store):
        sampler = PrefixSampler(store, seed=9)
        m = 400
        counter = sampler.joint_counts("x", "y", m)
        rows = sampler.shuffled_prefix(m)
        x = store.column("x")[rows]
        y = store.column("y")[rows]
        for i in range(10):
            for j in range(5):
                assert counter.count_of(i, j) == int(((x == i) & (y == j)).sum())

    def test_pair_key_is_symmetric(self, store):
        sampler = PrefixSampler(store, seed=9)
        first = sampler.joint_counts("x", "y", 100)
        second = sampler.joint_counts("y", "x", 100)
        assert first is second

    def test_joint_cells_cost_two_per_record(self, store):
        sampler = PrefixSampler(store, seed=9)
        sampler.joint_counts("x", "y", 100)
        assert sampler.cells_scanned == 200

    def test_joint_with_self_rejected(self, store):
        sampler = PrefixSampler(store, seed=9)
        with pytest.raises(SchemaError, match="marginal"):
            sampler.joint_counts("x", "x", 10)

    def test_joint_shrinking_rejected(self, store):
        sampler = PrefixSampler(store, seed=9)
        sampler.joint_counts("x", "y", 500)
        with pytest.raises(ParameterError, match="cannot shrink"):
            sampler.joint_counts("x", "y", 100)

    def test_joint_incremental_matches_fresh(self, store):
        sampler = PrefixSampler(store, seed=9)
        sampler.joint_counts("x", "z", 128)
        counter = sampler.joint_counts("x", "z", 1024)
        fresh = PrefixSampler(store, seed=9).joint_counts("x", "z", 1024)
        assert np.array_equal(
            np.sort(counter.nonzero_counts()), np.sort(fresh.nonzero_counts())
        )


# ----------------------------------------------------------------------
# Marginals read off dense joint updates
# ----------------------------------------------------------------------
class SpyBackend:
    """Numpy counting that records which columns reached the backend."""

    name = "spy"

    def __init__(self, store: ColumnStore) -> None:
        self._names = {id(store.column(a)): a for a in store.attributes}
        self.counted: list[str] = []

    def count_columns(self, columns, support_sizes, rows):
        self.counted.extend(self._names[id(column)] for column in columns)
        return NumpyBackend().count_columns(columns, support_sizes, rows)


class MarginalOnlyCache:
    """Counter cache serving marginals counted to ``prefix``, never joints."""

    def __init__(self, store, seed, names, prefix):
        reference = PrefixSampler(store, seed=seed)
        self._marginals = {
            name: reference.marginal_counts(name, prefix).copy() for name in names
        }
        self._prefix = prefix

    def best_marginal(self, name, counted, num_rows):
        if name in self._marginals and counted < self._prefix <= num_rows:
            return self._prefix, self._marginals[name].copy()
        return None

    def best_joint(self, first, second, counted, num_rows):
        return None


class JointOnlyCache:
    """Counter cache serving ``target``'s joints counted to ``prefix``."""

    def __init__(self, store, seed, target, names, prefix):
        reference = PrefixSampler(store, seed=seed)
        self._joints = {
            tuple(sorted((target, name))): reference.joint_counts(
                target, name, prefix
            ).snapshot()
            for name in names
        }
        self._prefix = prefix

    def best_marginal(self, name, counted, num_rows):
        return None

    def best_joint(self, first, second, counted, num_rows):
        state = self._joints.get((first, second))
        if state is not None and counted < self._prefix <= num_rows:
            return self._prefix, JointCounter.from_snapshot(state)
        return None


def mi_step(sampler, target, candidates, num_rows, *, joints_first):
    """One MI iteration's counting, in the engine's order or the old one."""
    if joints_first:
        sampler.joint_counts_batch(target, candidates, num_rows)
        sampler.marginal_counts_batch(candidates, num_rows)
        sampler.marginal_counts(target, num_rows)
    else:
        sampler.marginal_counts(target, num_rows)
        sampler.marginal_counts_batch(candidates, num_rows)
        sampler.joint_counts_batch(target, candidates, num_rows)


def assert_same_counts(sampler, reference):
    """Counters, ``cells_scanned`` and ``cells_saved`` all agree."""
    ours, theirs = sampler.state_snapshot(), reference.state_snapshot()
    assert ours["cells_scanned"] == theirs["cells_scanned"]
    assert ours["cells_saved"] == theirs["cells_saved"]
    assert ours["marginals"].keys() == theirs["marginals"].keys()
    for name, entry in ours["marginals"].items():
        assert entry["counted"] == theirs["marginals"][name]["counted"]
        assert np.array_equal(entry["counts"], theirs["marginals"][name]["counts"])
    assert joint_tables(ours) == joint_tables(theirs)


def joint_tables(snapshot):
    """``{pair: (counted, {pair code: count})}``, dense or sparse alike."""
    tables = {}
    for entry in snapshot["joints"]:
        state = entry["counter"]
        if "dense" in state:
            codes = np.flatnonzero(state["dense"])
            counts = state["dense"][codes]
        else:
            codes, counts = state["sparse_codes"], state["sparse_counts"]
        tables[(entry["first"], entry["second"])] = (
            entry["counted"],
            dict(zip(codes.tolist(), counts.tolist())),
        )
    return tables


def assert_exact_prefix_counts(sampler, store):
    """Every live marginal equals a direct count over its prefix."""
    for name, entry in sampler.state_snapshot()["marginals"].items():
        rows = sampler.shuffled_prefix(entry["counted"])
        direct = np.bincount(
            store.column(name)[rows], minlength=store.support_size(name)
        )
        assert np.array_equal(entry["counts"], direct)


SIZES = (250, 500, 1000, 2000)


class TestDerivedMarginals:
    @pytest.mark.parametrize("target", ["a", "y", "zz"])
    def test_joints_first_matches_marginals_first(self, store, target):
        # "a" sorts before every candidate, "zz" after, "y" between: the
        # target sits on both sides of the joint reshape.
        data = {name: store.column(name) for name in store.attributes}
        data[target] = (data["x"] + data["z"]) % 4
        with_target = ColumnStore(data)
        candidates = [name for name in ("x", "y", "z") if name != target]
        sampler = PrefixSampler(with_target, seed=4)
        reference = PrefixSampler(with_target, seed=4)
        for size in SIZES:
            mi_step(sampler, target, candidates, size, joints_first=True)
            mi_step(reference, target, candidates, size, joints_first=False)
            assert_same_counts(sampler, reference)
        assert_exact_prefix_counts(sampler, with_target)

    def test_aligned_candidates_never_reach_the_backend(self, store):
        spy = SpyBackend(store)
        sampler = PrefixSampler(store, seed=4, backend=spy)
        for size in SIZES:
            mi_step(sampler, "y", ["x", "z"], size, joints_first=True)
        assert spy.counted == []
        assert_exact_prefix_counts(sampler, store)

    def test_mi_query_gathers_no_column_for_its_marginals(self, store):
        from repro import swope_top_k_mutual_information

        spy = SpyBackend(store)
        result = swope_top_k_mutual_information(
            store, "y", 1, seed=4, backend=spy, prune=False
        )
        reference = swope_top_k_mutual_information(
            store, "y", 1, seed=4, backend="numpy", prune=False
        )
        assert spy.counted == []
        assert result.stats.cells_scanned == reference.stats.cells_scanned
        assert [e.attribute for e in result.estimates] == [
            e.attribute for e in reference.estimates
        ]

    def test_sparse_joint_falls_back_to_the_backend(self, rng):
        n = 2000
        sparse_store = ColumnStore(
            {
                "wide": rng.permutation(np.arange(n) % 1200),
                "wider": rng.permutation(np.arange(n) % 1000),
                "y": rng.integers(0, 5, n),
            }
        )
        spy = SpyBackend(sparse_store)
        sampler = PrefixSampler(sparse_store, seed=4, backend=spy)
        reference = PrefixSampler(sparse_store, seed=4)
        for size in SIZES:
            mi_step(sampler, "wider", ["wide", "y"], size, joints_first=True)
            mi_step(reference, "wider", ["wide", "y"], size, joints_first=False)
            assert_same_counts(sampler, reference)
        joint = sampler.joint_counts("wide", "wider", SIZES[-1])
        assert not joint.is_dense
        # only the sparse pair's candidate is gathered; "y" and the
        # target come off the dense ("wider", "y") joint
        assert set(spy.counted) == {"wide"}
        assert_exact_prefix_counts(sampler, sparse_store)

    def test_warm_start_misaligning_prefixes_reads_joint_totals(self, store):
        names = ["x", "y", "z"]
        spy = SpyBackend(store)
        sampler = PrefixSampler(
            store,
            seed=4,
            backend=spy,
            counter_cache=MarginalOnlyCache(store, 4, names, 700),
        )
        reference = PrefixSampler(
            store,
            seed=4,
            counter_cache=MarginalOnlyCache(store, 4, names, 700),
        )
        for size in SIZES:
            mi_step(sampler, "y", ["x", "z"], size, joints_first=True)
            mi_step(reference, "y", ["x", "z"], size, joints_first=False)
            assert_same_counts(sampler, reference)
        # at 1000 the marginals jump from 500 to the cached 700 while the
        # joints extend from 500: the marginals are read off the joints'
        # totals at 1000, so no block is gathered for them
        assert sampler.cells_saved == 3 * (700 - 500)
        assert spy.counted == []
        assert_exact_prefix_counts(sampler, store)

    def test_marginal_ahead_of_its_joint(self, store):
        spy = SpyBackend(store)
        sampler = PrefixSampler(store, seed=4, backend=spy)
        reference = PrefixSampler(store, seed=4)
        for both in (sampler, reference):
            # an entropy query pushes "x" past the MI scan's frontier
            both.marginal_counts_batch(["x"], 1000)
        assert spy.counted == ["x"]
        for size in (1000, 2000):
            mi_step(sampler, "y", ["x", "z"], size, joints_first=True)
            mi_step(reference, "y", ["x", "z"], size, joints_first=False)
            assert_same_counts(sampler, reference)
        # "x" from 1000 and "y", "z" from 0 are all read off the joints'
        # totals: nothing is gathered after the entropy step
        assert spy.counted == ["x"]
        assert_exact_prefix_counts(sampler, store)

    @pytest.mark.parametrize("mi_size", [1000, 2000])
    def test_entropy_step_carries_joints_to_a_later_mi_step(
        self, store, mi_size, monkeypatch
    ):
        spy = SpyBackend(store)
        sampler = PrefixSampler(store, seed=4, backend=spy)
        reference = PrefixSampler(store, seed=4)
        monkeypatch.setattr(reference, "expect_joints", lambda pairs: None)
        for both in (sampler, reference):
            both.expect_joints([("y", "x"), ("y", "z")])
            mi_step(both, "y", ["x", "z"], 500, joints_first=True)
        assert_same_counts(sampler, reference)
        for both in (sampler, reference):
            # an entropy step past the joints' frontier at 500
            both.marginal_counts_batch(["x", "y", "z"], 1000)
        # held deltas are invisible: joints still at 500, same meter
        assert_same_counts(sampler, reference)
        assert set(sampler._held) == {("x", "y"), ("y", "z")}
        # x and z came off their joint deltas, the target y off a row sum
        assert spy.counted == []
        updates: list[int] = []
        real_update = JointCounter.update

        def recording_update(counter, first, second):
            updates.append(first.size)
            real_update(counter, first, second)

        monkeypatch.setattr(JointCounter, "update", recording_update)
        mi_step(sampler, "y", ["x", "z"], mi_size, joints_first=True)
        # only rows beyond the held [500, 1000) block are gathered
        assert updates == ([mi_size - 1000] * 2 if mi_size > 1000 else [])
        mi_step(reference, "y", ["x", "z"], mi_size, joints_first=True)
        assert_same_counts(sampler, reference)
        assert sampler._held == {}
        assert spy.counted == []
        assert_exact_prefix_counts(sampler, store)

    def test_cache_serving_the_joint_further_drops_the_held_delta(self, store):
        def cache():
            return JointOnlyCache(store, 4, "y", ["x", "z"], 1500)

        sampler = PrefixSampler(store, seed=4, counter_cache=cache())
        reference = PrefixSampler(store, seed=4, counter_cache=cache())
        sampler.expect_joints([("y", "x"), ("y", "z")])
        for both in (sampler, reference):
            mi_step(both, "y", ["x", "z"], 500, joints_first=True)
            both.marginal_counts_batch(["x", "y", "z"], 1000)
        assert set(sampler._held) == {("x", "y"), ("y", "z")}
        for both in (sampler, reference):
            mi_step(both, "y", ["x", "z"], 2000, joints_first=True)
        # the cache moved both joints from 500 to 1500, past the held
        # deltas' start, so they were dropped and [1500, 2000) gathered
        assert sampler._held == {}
        assert sampler.cells_saved == 2 * 2 * (1500 - 500)
        assert_same_counts(sampler, reference)
        assert_exact_prefix_counts(sampler, store)

    def test_sparse_joint_is_never_carried(self, rng):
        n = 2000
        sparse_store = ColumnStore(
            {
                "wide": rng.permutation(np.arange(n) % 1200),
                "wider": rng.permutation(np.arange(n) % 1000),
                "y": rng.integers(0, 5, n),
            }
        )
        spy = SpyBackend(sparse_store)
        sampler = PrefixSampler(sparse_store, seed=4, backend=spy)
        reference = PrefixSampler(sparse_store, seed=4)
        sampler.expect_joints([("wider", "wide"), ("wider", "y")])
        for both in (sampler, reference):
            mi_step(both, "wider", ["wide", "y"], 500, joints_first=True)
        spy.counted.clear()
        for both in (sampler, reference):
            both.marginal_counts_batch(["wide", "wider", "y"], 1000)
        assert set(sampler._held) == {("wider", "y")}
        # the sparse pair's candidate is gathered; "y" and the target
        # come off the dense ("wider", "y") delta
        assert spy.counted == ["wide"]
        for both in (sampler, reference):
            mi_step(both, "wider", ["wide", "y"], 2000, joints_first=True)
        assert sampler._held == {}
        assert_same_counts(sampler, reference)
        assert_exact_prefix_counts(sampler, sparse_store)

    def test_discard_held_joints_ends_the_carry(self, store):
        sampler = PrefixSampler(store, seed=4)
        sampler.expect_joints([("y", "x"), ("y", "z")])
        mi_step(sampler, "y", ["x", "z"], 500, joints_first=True)
        sampler.marginal_counts_batch(["x", "y", "z"], 1000)
        assert sampler._held
        sampler.discard_held_joints()
        assert sampler._held == {}
        # with no expectation left, the next entropy step holds nothing
        sampler.marginal_counts_batch(["x", "y", "z"], 2000)
        assert sampler._held == {}

    def test_marginal_ahead_of_a_sparse_joint_is_gathered(self, rng):
        n = 2000
        sparse_store = ColumnStore(
            {
                "wide": rng.permutation(np.arange(n) % 1200),
                "wider": rng.permutation(np.arange(n) % 1000),
            }
        )
        spy = SpyBackend(sparse_store)
        sampler = PrefixSampler(sparse_store, seed=4, backend=spy)
        reference = PrefixSampler(sparse_store, seed=4)
        for both in (sampler, reference):
            both.marginal_counts_batch(["wide"], 1000)
        for size in (1000, 2000):
            mi_step(sampler, "wider", ["wide"], size, joints_first=True)
            mi_step(reference, "wider", ["wide"], size, joints_first=False)
            assert_same_counts(sampler, reference)
        assert not sampler.joint_counts("wide", "wider", 2000).is_dense
        # a sparse joint serves no marginal: both columns are gathered
        assert spy.counted == ["wide", "wider", "wide", "wider"]
        assert_exact_prefix_counts(sampler, sparse_store)


def sort_blocks(monkeypatch, store, on):
    """Gather every permutation block of ``store`` sorted (``on``) or
    through the unsorted slice, whatever the store's size."""
    monkeypatch.setattr(
        sampling, "_SORT_BLOCKS_FROM", 0 if on else store.num_rows + 1
    )


def assert_same_state(ours, theirs):
    """Equal nested snapshots: same keys, same order, same array bytes."""
    if isinstance(ours, dict):
        assert list(ours) == list(theirs)
        for key in ours:
            assert_same_state(ours[key], theirs[key])
    elif isinstance(ours, (list, tuple)):
        assert len(ours) == len(theirs)
        for mine, other in zip(ours, theirs):
            assert_same_state(mine, other)
    elif isinstance(ours, np.ndarray):
        assert ours.dtype == theirs.dtype
        assert np.array_equal(ours, theirs)
    else:
        assert ours == theirs


class RowsBackend(NumpyBackend):
    """Numpy counting that records every block of rows it is handed."""

    def __init__(self) -> None:
        self.rows: list[np.ndarray] = []

    def count_columns(self, columns, support_sizes, rows):
        self.rows.append(np.array(rows))
        return super().count_columns(columns, support_sizes, rows)


class TestSortedBlocks:
    """A block is a set of rows: gathering it sorted changes no count,
    snapshot, held delta or written byte."""

    @staticmethod
    def _store():
        rng = np.random.default_rng(23)
        n = 4000
        target = rng.integers(0, 6, n)
        return ColumnStore(
            {
                "x": rng.integers(0, 10, n),
                "y": np.where(rng.random(n) < 0.7, target, rng.integers(0, 6, n)),
                "target": target,
                # 1001 x 1001 codes: the ("wide", "wider") joint is sparse
                "wide": rng.permutation(np.arange(n) % 1001),
                "wider": rng.permutation(np.arange(n) % 1001),
            }
        )

    @staticmethod
    def _count(store):
        """Grow marginals, dense and sparse joints and held deltas."""
        backend = RowsBackend()
        sampler = PrefixSampler(store, seed=3, backend=backend)
        sampler.marginal_counts_batch(["x", "y", "wide"], 500)
        sampler.joint_counts_batch("target", ["x", "y"], 500)
        sampler.joint_counts("wide", "wider", 500)
        sampler.expect_joints([("target", "x"), ("target", "y")])
        sampler.marginal_counts_batch(["x", "y", "wide"], 1500)
        held = {
            key: (start, stop, delta.copy())
            for key, (start, stop, delta) in sampler._held.items()
        }
        sampler.joint_counts_batch("target", ["x", "y"], 3000)
        sampler.joint_counts("wider", "wide", 3000)
        sampler.marginal_counts_batch(["x", "y", "wide", "wider", "target"], 4000)
        return sampler, held, backend.rows

    def test_counts_snapshots_and_held_deltas_match(self, monkeypatch):
        store = self._store()
        sort_blocks(monkeypatch, store, on=True)
        ours, our_held, our_rows = self._count(store)
        sort_blocks(monkeypatch, store, on=False)
        theirs, their_held, their_rows = self._count(store)

        assert set(our_held) == {("target", "x"), ("target", "y")}
        assert_same_state(our_held, their_held)
        assert ours.cells_scanned == theirs.cells_scanned
        snapshot = ours.state_snapshot()
        assert_same_state(snapshot, theirs.state_snapshot())
        assert not JointCounter.from_snapshot(
            snapshot["joints"][-1]["counter"]
        ).is_dense
        assert_exact_prefix_counts(ours, store)
        # the backend saw the same sets of rows, sorted only when asked
        assert len(our_rows) == len(their_rows) > 0
        for sorted_rows, rows in zip(our_rows, their_rows):
            assert np.array_equal(sorted_rows, np.sort(rows))
            assert np.all(np.diff(sorted_rows) > 0)
        assert any(np.any(np.diff(rows) < 0) for rows in their_rows)

    def test_default_threshold_sorts_only_large_stores(self):
        small = ColumnStore({"x": np.arange(1000) % 7})
        rows = PrefixSampler(small, seed=1)._prefix_rows(0, 500)
        assert np.any(np.diff(rows) < 0)
        assert sampling._SORT_BLOCKS_FROM > 60_000

    @staticmethod
    def _specs():
        return [
            QuerySpec(kind="top_k", score="entropy", k=1, epsilon=0.05, prune=True),
            QuerySpec(kind="filter", score="entropy", threshold=2.5, epsilon=0.05),
            QuerySpec(
                kind="top_k", score="mutual_information", k=1, epsilon=0.3,
                target="wider", attributes=("wide", "x", "y"), prune=True,
            ),
            QuerySpec(
                kind="filter", score="mutual_information", threshold=0.3,
                epsilon=0.3, target="target", attributes=("x", "y"),
            ),
        ]

    def _writes(self, store, root, monkeypatch):
        """Every file a cold checkpointed and cached plan writes, in order,
        as ``(path relative to root, bytes)``."""
        from repro.durability import atomic

        root.mkdir()
        writes = []
        original = atomic.atomic_write_bytes

        def spy(target, data):
            writes.append((Path(target).relative_to(root).as_posix(), data))
            return original(target, data)

        monkeypatch.setattr(atomic, "atomic_write_bytes", spy)
        executor = PlanExecutor(
            store, seed=5, checkpoint_path=root / "plan.ckpt",
            cache_dir=root / "cache",
        )
        executor.execute(plan_queries(store, self._specs()))
        monkeypatch.setattr(atomic, "atomic_write_bytes", original)
        return writes

    def test_checkpoint_and_cache_bytes_match(self, tmp_path, monkeypatch):
        # wall-clock fields are the only other source of difference
        monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
        store = self._store()
        sort_blocks(monkeypatch, store, on=True)
        ours = self._writes(store, tmp_path / "sorted", monkeypatch)
        sort_blocks(monkeypatch, store, on=False)
        theirs = self._writes(store, tmp_path / "unsorted", monkeypatch)
        names = [name for name, _ in ours]
        assert names.count("plan.ckpt") > 8
        assert any(name.startswith("cache/") for name in names)
        assert ours == theirs

    def test_no_block_outlives_a_query(self, monkeypatch):
        store = self._store()
        sort_blocks(monkeypatch, store, on=True)
        plan = plan_queries(store, self._specs())

        executor = PlanExecutor(store, seed=5)
        executor.execute(plan)
        assert executor.sampler._block_rows is None

        truncated = PlanExecutor(store, seed=5, budget=QueryBudget(max_cells=1))
        with pytest.raises(QueryInterruptedError):
            truncated.execute(plan, strict=True)
        assert truncated.sampler._block_rows is None

        class FailingBackend(NumpyBackend):
            def count_columns(self, columns, support_sizes, rows):
                raise OSError("simulated store read error")

        failing = PlanExecutor(store, seed=5, backend=FailingBackend())
        with pytest.raises(OSError):
            failing.execute(plan)
        assert failing.sampler._block_rows is None
        with pytest.raises(OSError):
            failing.top_k_entropy(1)
        assert failing.sampler._block_rows is None
