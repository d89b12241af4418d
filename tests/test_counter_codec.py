"""The counter codec that checkpoints and plan-cache partitions share.

Counter arrays are stored as base64 of their raw little-endian bytes in
the narrowest width that holds their largest value (``|u1``, ``<u2``,
``<u4``, else ``<i8``), and a dense joint table as its nonzero cells
whenever that takes fewer bytes. The tests:

* round trips — every width boundary, empty arrays, dense tables with
  no, few or all cells nonzero, and sparse joints, decode to the same
  writable int64 arrays;
* the form of a dense table follows exact byte counts;
* the decoder refuses any other dtype, a data length that does not
  match the shape, and nonzero cells that are out of order, outside the
  table or hold no count;
* size — a sparsely filled 1000 × 1000 joint stays below what the
  zlib codec wrote for it;
* old files — a v4 checkpoint (zlib arrays) is refused, and a v1 cache
  partition is a cold start with the cold run's answers and cells.
"""

from __future__ import annotations

import base64
import copy
import json
import zlib
from pathlib import Path
from typing import Any

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import CACHE_FORMAT, CACHE_SCHEMA_VERSION
from repro.core.plan import PlanExecutor, QuerySpec, plan_queries
from repro.data.column_store import ColumnStore
from repro.data.sampling import PrefixSampler
from repro.durability.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_SCHEMA_VERSION,
    decode_counters,
    encode_counters,
    read_envelope,
    write_envelope,
)
from repro.exceptions import CheckpointError, CheckpointMismatchError

_CODEC = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: The largest value of each stored width, and the first value past it.
_BOUNDARIES = {
    255: "|u1",
    256: "<u2",
    65_535: "<u2",
    65_536: "<u4",
    2**32 - 1: "<u4",
    2**32: "<i8",
}


def _itemsize(top: int) -> int:
    """Bytes per value of the width that holds ``[0, top]``."""
    for limit, size in ((0xFF, 1), (0xFFFF, 2), (0xFFFF_FFFF, 4)):
        if top <= limit:
            return size
    return 8


def _round_trip(state: dict[str, Any]) -> tuple[dict[str, Any], dict[str, Any]]:
    """The encoded payload, and its decoding after a JSON round trip."""
    encoded = encode_counters(state)
    return encoded, decode_counters(json.loads(json.dumps(encoded)))


def _marginal_state(counts: np.ndarray) -> dict[str, Any]:
    return {"marginals": {"a": {"counted": 7, "counts": counts}}, "joints": []}


def _joint_state(counter: dict[str, Any]) -> dict[str, Any]:
    return {
        "marginals": {},
        "joints": [{"first": "a", "second": "b", "counted": 7, "counter": counter}],
    }


def _assert_counter_array(decoded: np.ndarray, original: np.ndarray) -> None:
    assert decoded.dtype == np.int64
    assert decoded.flags.writeable
    np.testing.assert_array_equal(decoded, original)


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
@_CODEC
@given(
    top=st.sampled_from(sorted(_BOUNDARIES)),
    rest=st.lists(st.integers(0, 255), max_size=12),
    position=st.integers(0, 12),
)
def test_marginals_round_trip_in_their_narrowest_width(top, rest, position):
    values = list(rest)
    values.insert(min(position, len(values)), top)
    counts = np.asarray(values, dtype=np.int64)
    encoded, decoded = _round_trip(_marginal_state(counts))
    assert encoded["marginals"]["a"]["counts"]["dtype"] == _BOUNDARIES[top]
    _assert_counter_array(decoded["marginals"]["a"]["counts"], counts)
    assert decoded["marginals"]["a"]["counted"] == 7


def test_empty_arrays_round_trip() -> None:
    empty = np.zeros(0, dtype=np.int64)
    encoded, decoded = _round_trip(_marginal_state(empty))
    assert encoded["marginals"]["a"]["counts"]["data"] == ""
    _assert_counter_array(decoded["marginals"]["a"]["counts"], empty)
    sparse = {"support_first": 3, "support_second": 4, "total": 0,
              "sparse_codes": empty, "sparse_counts": empty}
    _, decoded = _round_trip(_joint_state(sparse))
    counter = decoded["joints"][0]["counter"]
    _assert_counter_array(counter["sparse_codes"], empty)
    _assert_counter_array(counter["sparse_counts"], empty)


@_CODEC
@given(
    u1=st.integers(1, 40),
    u2=st.integers(1, 40),
    fill=st.sampled_from(["none", "few", "all"]),
    top=st.sampled_from(sorted(_BOUNDARIES)),
    seed=st.integers(0, 2**16),
)
def test_dense_tables_round_trip_in_the_smaller_form(u1, u2, fill, top, seed):
    rng = np.random.default_rng(seed)
    size = u1 * u2
    table = np.zeros(size, dtype=np.int64)
    if fill != "none":
        nonzero = size if fill == "all" else int(rng.integers(1, max(2, size // 8)))
        cells = rng.choice(size, size=nonzero, replace=False)
        table[cells] = rng.integers(1, min(top, 300) + 1, size=nonzero)
        table[cells[0]] = top
    counter = {"support_first": u1, "support_second": u2,
               "total": int(table.sum()), "dense": table}
    encoded, decoded = _round_trip(_joint_state(counter))
    stored = encoded["joints"][0]["counter"]
    restored = decoded["joints"][0]["counter"]
    _assert_counter_array(restored["dense"], table)
    assert restored["total"] == counter["total"]
    assert (restored["support_first"], restored["support_second"]) == (u1, u2)
    # The form is chosen by exact byte counts of the narrowed data.
    count_bytes = _itemsize(int(table.max()))
    whole = size * count_bytes
    sparse = int(np.count_nonzero(table)) * (_itemsize(size - 1) + count_bytes)
    assert ("nonzero_cells" in stored) == (sparse < whole)
    assert ("dense" in stored) == (sparse >= whole)


@_CODEC
@given(
    pairs=st.dictionaries(
        st.integers(0, 10**6 - 1), st.integers(1, 2**33), max_size=30
    )
)
def test_sparse_joints_round_trip_in_their_order(pairs):
    codes = np.fromiter(pairs.keys(), dtype=np.int64, count=len(pairs))
    counts = np.fromiter(pairs.values(), dtype=np.int64, count=len(pairs))
    counter = {"support_first": 1000, "support_second": 1000,
               "total": int(counts.sum()), "sparse_codes": codes,
               "sparse_counts": counts}
    _, decoded = _round_trip(_joint_state(counter))
    restored = decoded["joints"][0]["counter"]
    _assert_counter_array(restored["sparse_codes"], codes)
    _assert_counter_array(restored["sparse_counts"], counts)


def test_a_sparsely_filled_wide_joint_is_smaller_than_its_zlib_form(
    tmp_path: Path,
) -> None:
    """2,000 rows of a 1000 x 1000 joint: at most the zlib codec's 18,269 bytes."""
    rng = np.random.default_rng(0)
    rows = 200_000
    store = ColumnStore(
        {"a": rng.integers(0, 1000, rows), "b": rng.integers(0, 1000, rows)}
    )
    sampler = PrefixSampler(store, seed=1)
    sampler.joint_counts("a", "b", 2000)
    written = write_envelope(
        tmp_path / "wide.json",
        encode_counters(sampler.state_snapshot()),
        marker=CACHE_FORMAT,
        schema_version=CACHE_SCHEMA_VERSION,
    )
    assert written <= 18_269
    payload = read_envelope(
        tmp_path / "wide.json", marker=CACHE_FORMAT,
        schema_version=CACHE_SCHEMA_VERSION,
    )
    [joint] = decode_counters(payload)["joints"]
    [live] = sampler.state_snapshot()["joints"]
    _assert_counter_array(joint["counter"]["dense"], live["counter"]["dense"])


# ----------------------------------------------------------------------
# Refusals
# ----------------------------------------------------------------------
def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


_TABLE = np.array([0, 3, 0, 0, 0, 1, 0, 0, 0, 0, 0, 2], dtype=np.int64)


def _encoded_table() -> dict[str, Any]:
    """A 3 x 4 dense joint, stored as its nonzero cells."""
    counter = {"support_first": 3, "support_second": 4, "total": 6,
               "dense": _TABLE}
    encoded = encode_counters(_joint_state(counter))
    assert "nonzero_cells" in encoded["joints"][0]["counter"]
    return encoded


def _cells(encoded: dict[str, Any], cells: list[int], counts: list[int]) -> None:
    counter = encoded["joints"][0]["counter"]
    counter["nonzero_cells"] = {"dtype": "|u1", "shape": [len(cells)],
                                "data": _b64(bytes(cells))}
    counter["nonzero_counts"] = {"dtype": "|u1", "shape": [len(counts)],
                                 "data": _b64(bytes(counts))}


_MARGINAL_DAMAGE = {
    "object dtype": {"dtype": "|O"},
    "float dtype": {"dtype": "<f8"},
    "big-endian dtype": {"dtype": ">i8"},
    "signed byte dtype": {"dtype": "|i1"},
    "unhashable dtype": {"dtype": ["|u1"]},
    "one byte short": {"data": _b64(bytes([1, 2]))},
    "one byte long": {"data": _b64(bytes([1, 2, 3, 4]))},
    "negative shape": {"shape": [-3]},
    "float shape": {"shape": [3.0]},
    "not base64": {"data": "!!!!"},
    "null data": {"data": None},
}


@pytest.mark.parametrize("damage", sorted(_MARGINAL_DAMAGE))
def test_decoder_refuses_malformed_arrays(damage: str) -> None:
    encoded = encode_counters(_marginal_state(np.array([1, 2, 3])))
    entry = encoded["marginals"]["a"]["counts"]
    assert entry == {"dtype": "|u1", "shape": [3], "data": _b64(bytes([1, 2, 3]))}
    entry.update(_MARGINAL_DAMAGE[damage])
    with pytest.raises(CheckpointError):
        decode_counters(encoded)


@pytest.mark.parametrize(
    ("cells", "counts"),
    [
        ([1, 5, 12], [3, 1, 2]),  # an index equal to the table size
        ([1, 5, 255], [3, 1, 2]),  # far outside the table
        ([5, 1, 11], [1, 3, 2]),  # out of order
        ([1, 5, 5, 11], [3, 1, 1, 1]),  # repeated
        ([1, 5, 11], [3, 0, 2]),  # a nonzero cell holding no count
        ([1, 5, 11], [3, 1]),  # fewer counts than cells
    ],
)
def test_decoder_refuses_malformed_nonzero_cells(cells, counts) -> None:
    encoded = _encoded_table()
    _cells(encoded, [1, 5, 11], [3, 1, 2])
    decoded = decode_counters(encoded)
    _assert_counter_array(decoded["joints"][0]["counter"]["dense"], _TABLE)
    _cells(encoded, cells, counts)
    with pytest.raises(CheckpointError):
        decode_counters(encoded)


def test_decoder_refuses_a_dense_table_of_the_wrong_size() -> None:
    encoded = _encoded_table()
    counter = encoded["joints"][0]["counter"]
    for key in ("nonzero_cells", "nonzero_counts"):
        del counter[key]
    counter["dense"] = {"dtype": "|u1", "shape": [11], "data": _b64(bytes(11))}
    with pytest.raises(CheckpointError, match="shape"):
        decode_counters(encoded)


# ----------------------------------------------------------------------
# Files written by the zlib codec
# ----------------------------------------------------------------------
def _zlib_array(arr: np.ndarray) -> dict[str, Any]:
    """An int64 array as the zlib codec (checkpoint v4, cache v1) stored it."""
    return {
        "dtype": arr.dtype.str,
        "shape": list(arr.shape),
        "data": _b64(zlib.compress(arr.tobytes())),
    }


def _zlib_counters(payload: dict[str, Any]) -> dict[str, Any]:
    """``payload``'s counters, re-encoded as the zlib codec wrote them."""
    counters = decode_counters(payload)
    joints = []
    for joint in counters["joints"]:
        counter = {key: joint["counter"][key]
                   for key in ("support_first", "support_second", "total")}
        for key in ("dense", "sparse_codes", "sparse_counts"):
            if key in joint["counter"]:
                counter[key] = _zlib_array(joint["counter"][key])
        joints.append({**joint, "counter": counter})
    return {
        "marginals": {
            name: {"counted": entry["counted"],
                   "counts": _zlib_array(entry["counts"])}
            for name, entry in counters["marginals"].items()
        },
        "joints": joints,
    }


def _store() -> ColumnStore:
    rng = np.random.default_rng(5)
    rows = 3000
    target = rng.integers(0, 6, rows)
    return ColumnStore(
        {
            "wide": rng.integers(0, 300, rows),
            "medium": rng.integers(0, 8, rows),
            "target": target,
            "noisy": np.where(rng.random(rows) < 0.7, target,
                              rng.integers(0, 6, rows)),
        }
    )


_SPECS = [
    QuerySpec(kind="top_k", score="entropy", k=2, epsilon=0.1, prune=False),
    QuerySpec(kind="top_k", score="mutual_information", k=1, epsilon=0.5,
              target="target", prune=False),
]


def test_a_v4_checkpoint_with_zlib_arrays_is_refused(tmp_path: Path) -> None:
    store = _store()
    path = tmp_path / "plan.ckpt"
    PlanExecutor(store, seed=3, checkpoint_path=path).execute(
        plan_queries(store, _SPECS)
    )
    payload = read_envelope(path, marker=CHECKPOINT_FORMAT,
                            schema_version=CHECKPOINT_SCHEMA_VERSION)
    assert payload["sampler"]["joints"]
    old = copy.deepcopy(payload)
    old["sampler"].update(_zlib_counters(payload["sampler"]))
    old["executor"]["checkpoint_every"] = 1
    write_envelope(path, old, marker=CHECKPOINT_FORMAT, schema_version=4)
    with pytest.raises(CheckpointMismatchError, match="schema version 4"):
        PlanExecutor.resume(path, store)


def test_a_v1_cache_partition_is_a_cold_start(tmp_path: Path) -> None:
    store = _store()
    plan = plan_queries(store, _SPECS)
    cold = PlanExecutor(store, seed=3).execute(plan)
    directory = tmp_path / "cache"
    PlanExecutor(store, seed=3, cache_dir=directory).execute(plan)
    [path] = directory.glob("part-*.json")
    payload = read_envelope(path, marker=CACHE_FORMAT,
                            schema_version=CACHE_SCHEMA_VERSION)
    assert payload["joints"] and payload["answers"]
    old = {**payload, **_zlib_counters(payload)}
    write_envelope(path, old, marker=CACHE_FORMAT, schema_version=1)

    again = PlanExecutor(store, seed=3, cache_dir=directory).execute(plan)
    assert {n: again[n].attributes for n in again} == {
        n: cold[n].attributes for n in cold
    }
    assert [again[n].estimates for n in again] == [cold[n].estimates for n in cold]
    assert again.stats.cells_scanned == cold.stats.cells_scanned > 0
