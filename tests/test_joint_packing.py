"""Two candidates' joints counted in one pass (:meth:`JointCounter.count_two`).

The sampler counts a target's joints with two adjacent candidates from
one ``bincount`` over three-way codes where those codes fit int16. The
counts are exact integers, so everything downstream must be bit for bit
what one pass per pair gives. Three layers check it:

* the kernel against per-pair counts, in both key orientations, over one
  or two slices, and a value at its declared support refused;
* the sampler against itself with packing switched off, and against a
  direct count over the prefix: both key orientations, supports whose
  product is ``2^15 - 1`` (packs) and ``2^15`` (does not), blocks that
  wrap at ``N``, deltas held by an entropy step, and a sparse joint;
* checkpoint and cache files of a plan, byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.plan import PlanExecutor, QuerySpec, plan_queries
from repro.data import sampling
from repro.data.column_store import ColumnStore
from repro.data.joint import DENSE_LIMIT, JointCounter, packs_two
from repro.data.mmap_store import MANIFEST_NAME, MmapStore
from repro.data.sampling import PrefixSampler
from repro.exceptions import SchemaError

N = 600

#: ``t7`` packs with ``a31`` and ``z151`` (7 * 31 * 151 = 2^15 - 1);
#: ``t8`` does not pack with ``a64`` and ``z64`` (8 * 64 * 64 = 2^15).
#: Names put each target first in one key and second in the other.
#: ``wide``'s joint with ``t7`` is past the dense limit: sparse.
SUPPORTS = {"t7": 7, "a31": 31, "z151": 151, "t8": 8, "a64": 64, "z64": 64,
            "wide": 200_000}
GROUPS = {"t7": ("a31", "z151", "wide"), "t8": ("a64", "z64")}


@pytest.fixture(scope="module")
def pack_store() -> ColumnStore:
    rng = np.random.default_rng(15)
    columns = {name: rng.integers(0, min(u, 1000), N) for name, u in SUPPORTS.items()}
    return ColumnStore(columns, support_sizes=SUPPORTS)


def test_the_bound_is_the_int16_code_bound():
    assert packs_two(7, 31, 151)
    assert not packs_two(8, 64, 64)
    assert 7 * 200_000 > DENSE_LIMIT


@settings(max_examples=40, deadline=None)
@given(
    supports=st.tuples(*[st.integers(1, 40)] * 3).filter(lambda s: packs_two(*s)),
    length=st.integers(1, 300),
    cut=st.floats(0.0, 1.0),
    target_second=st.tuples(st.booleans(), st.booleans()),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_equals_per_pair_counts(supports, length, cut, target_second, seed):
    rng = np.random.default_rng(seed)
    u_t, u_a, u_b = supports
    t, a, b = (rng.integers(0, u, length).astype(np.int8) for u in supports)
    at = int(cut * length)
    parts = [p for p in (slice(0, at), slice(at, length)) if p.stop > p.start]

    def keyed(target, candidate, flip):
        return (candidate, target) if flip else (target, candidate)

    flip_a, flip_b = target_second
    packed = [JointCounter(*keyed(u_t, u, flip)) for u, flip in ((u_a, flip_a),
                                                                (u_b, flip_b))]
    pairwise = [JointCounter(*keyed(u_t, u, flip)) for u, flip in ((u_a, flip_a),
                                                                  (u_b, flip_b))]
    for part in parts:
        block = t[part]  # one array, shared by both pairs
        pair_a, pair_b = keyed(block, a[part], flip_a), keyed(block, b[part], flip_b)
        mine, theirs = packed[0].count_two(*pair_a, (packed[1], *pair_b))
        assert mine.dtype == theirs.dtype == np.int64
        assert np.array_equal(mine, pairwise[0].count(*pair_a))
        assert np.array_equal(theirs, pairwise[1].count(*pair_b))
        packed[0].update(*pair_a, also=(packed[1], *pair_b))
        pairwise[0].update(*pair_a)
        pairwise[1].update(*pair_b)
    for ours, reference in zip(packed, pairwise):
        assert ours.total == reference.total == length
        assert np.array_equal(ours.flat_counts(), reference.flat_counts())


@pytest.mark.parametrize("packs", [True, False])
def test_value_at_its_declared_support_is_a_schema_error(tmp_path, monkeypatch, packs):
    # ``t`` holds 7, but the manifest was edited to declare 7 values:
    # its three-way codes with (a31, z151) pass 2^15 - 1 and wrap int16
    # below zero; its pair codes pass the table's end.
    columns = {"t": np.arange(N) % 8, "a": np.arange(N) % 31, "z": np.arange(N) % 151}
    store = MmapStore.from_column_store(
        ColumnStore(columns, support_sizes={"t": 8, "a": 31, "z": 151}), tmp_path / "s"
    )
    manifest_path = store.directory / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    for entry in manifest["columns"]:
        if entry["name"] == "t":
            entry["support_size"] = 7
    manifest_path.write_text(json.dumps(manifest))
    shrunk = MmapStore.open(store.directory)
    assert packs_two(*(shrunk.support_size(name) for name in "taz"))
    if not packs:
        monkeypatch.setattr(sampling, "packs_two", lambda *supports: False)
    with pytest.raises(SchemaError, match="declared support size"):
        PrefixSampler(shrunk, seed=1).joint_counts_batch("t", ["a", "z"], N)


def _run(store, seed, sizes, orders, entropy_between, first_names):
    """MI steps per target at ``sizes``; an entropy step past each.

    The first step counts only the first ``first_names`` candidates of
    each target, so later steps extend pairs from different prefixes.
    """
    sampler = PrefixSampler(store, seed=seed)
    sampler.expect_joints(
        [(target, name) for target, names in orders.items() for name in names]
    )
    for step, (size, further) in enumerate(zip(sizes, entropy_between)):
        for target, names in orders.items():
            names = names[:first_names] if step == 0 else names
            sampler.joint_counts_batch(target, names, size)
            sampler.marginal_counts_batch([target, *names], size)
        if further > size:
            # candidates extend from their joints' prefix: held deltas
            sampler.marginal_counts_batch(
                [name for names in orders.values() for name in names], further
            )
    return sampler


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**16),
    sizes=st.lists(st.integers(1, N), min_size=1, max_size=4, unique=True).map(sorted),
    extra=st.lists(st.integers(0, N), min_size=4, max_size=4),
    orders=st.fixed_dictionaries(
        {target: st.permutations(names) for target, names in GROUPS.items()}
    ),
    first_names=st.integers(1, 3),
)
def test_sampler_counts_equal_pair_by_pair(
    pack_store, monkeypatch, seed, sizes, extra, orders, first_names
):
    entropy_between = [
        min(N, size + step, *sizes[i + 1 : i + 2])
        for i, (size, step) in enumerate(zip(sizes, extra))
    ]
    runs = (pack_store, seed, sizes, orders, entropy_between, first_names)
    packed = _run(*runs)
    with monkeypatch.context() as patch:
        patch.setattr(sampling, "packs_two", lambda *supports: False)
        reference = _run(*runs)
    ours, theirs = packed.state_snapshot(), reference.state_snapshot()
    assert ours["cells_scanned"] == theirs["cells_scanned"]
    assert [(j["first"], j["second"], j["counted"]) for j in ours["joints"]] == [
        (j["first"], j["second"], j["counted"]) for j in theirs["joints"]
    ]
    for mine, other in zip(ours["joints"], theirs["joints"]):
        assert mine["counter"].keys() == other["counter"].keys()
        for key, value in mine["counter"].items():
            assert np.array_equal(value, other["counter"][key]), key
        # and both equal a direct count of the pair over the prefix
        rows = packed.shuffled_prefix(mine["counted"])
        first, second = mine["first"], mine["second"]
        counter = packed._joints[(first, second)][1]
        codes = (pack_store.column(first)[rows].astype(np.int64)
                 * SUPPORTS[second] + pack_store.column(second)[rows])
        values, counts = np.unique(codes, return_counts=True)
        assert counter.is_dense == ((first, second) != ("t7", "wide"))
        assert sorted(counter.nonzero_counts().tolist()) == sorted(counts.tolist())
        assert all(
            counter.count_of(int(v) // SUPPORTS[second], int(v) % SUPPORTS[second])
            == c for v, c in zip(values.tolist(), counts.tolist())
        )
    for name, entry in ours["marginals"].items():
        assert entry["counted"] == theirs["marginals"][name]["counted"]
        assert np.array_equal(entry["counts"], theirs["marginals"][name]["counts"])


def _plan_files(store, directory: Path) -> dict[str, bytes]:
    specs = [
        QuerySpec.from_dict({"name": "h", "kind": "topk-entropy", "k": 2}),
        QuerySpec.from_dict({"name": "mi7", "kind": "topk-mi", "target": "t7",
                             "k": 1, "attributes": ["a31", "z151", "wide"]}),
        QuerySpec.from_dict({"name": "mi8", "kind": "filter-mi", "target": "t8",
                             "threshold": 0.5, "attributes": ["a64", "z64"]}),
    ]
    directory.mkdir()
    PlanExecutor(
        store, seed=5, checkpoint_path=directory / "plan.ckpt",
        cache_dir=directory / "cache",
    ).execute(plan_queries(store, specs))
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*")) if path.is_file()
    }


def test_checkpoint_and_cache_files_are_byte_identical(
    pack_store, tmp_path, monkeypatch, fake_clocks
):
    fake_clocks(1_000.0)
    packed = _plan_files(pack_store, tmp_path / "packed")
    monkeypatch.setattr(sampling, "packs_two", lambda *supports: False)
    fake_clocks(1_000.0)
    pair_by_pair = _plan_files(pack_store, tmp_path / "pairs")
    assert "plan.ckpt" in packed and any(n.startswith("cache") for n in packed)
    assert packed == pair_by_pair


class _OneJointCache:
    """Counter cache serving one joint, counted to ``prefix``."""

    def __init__(self, store, seed, pair, prefix):
        reference = PrefixSampler(store, seed=seed)
        self._state = reference.joint_counts(*pair, prefix).snapshot()
        self._pair, self._prefix = pair, prefix

    def best_marginal(self, name, counted, num_rows):
        return None

    def best_joint(self, first, second, counted, num_rows):
        if (first, second) == self._pair and counted < self._prefix <= num_rows:
            return self._prefix, JointCounter.from_snapshot(self._state)
        return None


@pytest.mark.parametrize("candidates", [["a31", "z151"], ["z151", "a31"]])
def test_joints_enter_the_snapshot_in_batch_order(pack_store, candidates):
    # The cache serves the later pair to the full prefix, so only the
    # earlier one is counted; the snapshot (and so every checkpoint)
    # still lists the pairs in the order the batch names them.
    later = tuple(sorted(("t7", candidates[1])))
    sampler = PrefixSampler(
        pack_store, seed=3, counter_cache=_OneJointCache(pack_store, 3, later, 400)
    )
    sampler.joint_counts_batch("t7", candidates, 400)
    listed = [(j["first"], j["second"]) for j in sampler.state_snapshot()["joints"]]
    assert listed == [tuple(sorted(("t7", name))) for name in candidates]
    assert sampler.cells_saved == 2 * 400
