"""Unit tests for :mod:`repro.data.column_store`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.column_store import ColumnStore
from repro.exceptions import SchemaError


class TestConstruction:
    def test_basic_shape(self, tiny_store):
        assert tiny_store.num_rows == 8
        assert tiny_store.num_attributes == 3
        assert tiny_store.attributes == ("a", "b", "c")
        assert len(tiny_store) == 8

    def test_empty_columns_rejected(self):
        with pytest.raises(SchemaError):
            ColumnStore({})

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SchemaError, match="rows"):
            ColumnStore({"a": np.zeros(3, dtype=int), "b": np.zeros(4, dtype=int)})

    def test_two_dimensional_column_rejected(self):
        with pytest.raises(SchemaError, match="1-D"):
            ColumnStore({"a": np.zeros((2, 2), dtype=int)})

    def test_float_column_rejected(self):
        with pytest.raises(SchemaError, match="integer"):
            ColumnStore({"a": np.array([0.5, 1.5])})

    def test_negative_codes_rejected(self):
        with pytest.raises(SchemaError, match="negative"):
            ColumnStore({"a": np.array([0, -1, 2])})

    def test_declared_support_too_small_rejected(self):
        with pytest.raises(SchemaError, match="support size"):
            ColumnStore({"a": np.array([0, 5])}, support_sizes={"a": 3})

    def test_declared_support_zero_rejected(self):
        with pytest.raises(SchemaError, match=">= 1"):
            ColumnStore({"a": np.array([0])}, support_sizes={"a": 0})

    def test_columns_are_read_only(self, tiny_store):
        col = tiny_store.column("a")
        with pytest.raises(ValueError):
            col[0] = 9

    def test_dtype_is_compact(self):
        # The smallest signed width holding [0, u): int8 up to 128 values.
        expected = {
            2: np.int8,
            128: np.int8,
            129: np.int16,
            32_767: np.int16,
            32_768: np.int32,
        }
        for support, dtype in expected.items():
            store = ColumnStore(
                {"a": np.array([0, support - 1], dtype=np.int64)},
                support_sizes={"a": support},
            )
            assert store.column("a").dtype == dtype, support

    def test_dtype_grows_with_support(self):
        store = ColumnStore(
            {"a": np.array([0], dtype=np.int64)}, support_sizes={"a": 100_000}
        )
        assert store.column("a").dtype == np.int32


class TestSupportSizes:
    def test_inferred_support(self, tiny_store):
        assert tiny_store.support_size("a") == 4
        assert tiny_store.support_size("b") == 2
        assert tiny_store.support_size("c") == 1

    def test_declared_support_preserved(self):
        store = ColumnStore({"a": np.array([0, 1])}, support_sizes={"a": 10})
        assert store.support_size("a") == 10

    def test_support_sizes_mapping_is_copy(self, tiny_store):
        mapping = tiny_store.support_sizes()
        mapping["a"] = 999
        assert tiny_store.support_size("a") == 4

    def test_max_support_size(self, tiny_store):
        assert tiny_store.max_support_size() == 4

    def test_unknown_attribute_raises(self, tiny_store):
        with pytest.raises(SchemaError, match="unknown"):
            tiny_store.support_size("nope")
        with pytest.raises(SchemaError, match="unknown"):
            tiny_store.column("nope")


class TestDerivedStores:
    def test_select_preserves_order_and_support(self, tiny_store):
        sub = tiny_store.select(["c", "a"])
        assert sub.attributes == ("c", "a")
        assert sub.support_size("a") == 4
        assert sub.num_rows == 8

    def test_select_unknown_raises(self, tiny_store):
        with pytest.raises(SchemaError):
            tiny_store.select(["a", "zzz"])

    def test_select_shares_arrays(self, tiny_store):
        sub = tiny_store.select(["a"])
        assert sub.column("a") is tiny_store.column("a")

    def test_drop(self, tiny_store):
        sub = tiny_store.drop(["b"])
        assert sub.attributes == ("a", "c")

    def test_drop_all_raises(self, tiny_store):
        with pytest.raises(SchemaError, match="empty"):
            tiny_store.drop(["a", "b", "c"])

    def test_drop_unknown_raises(self, tiny_store):
        with pytest.raises(SchemaError):
            tiny_store.drop(["zzz"])

    def test_head_keeps_declared_support(self, tiny_store):
        sub = tiny_store.head(2)
        assert sub.num_rows == 2
        # value 3 does not appear in the first 2 rows, but the domain is kept
        assert sub.support_size("a") == 4

    def test_head_clamps_to_num_rows(self, tiny_store):
        assert tiny_store.head(100).num_rows == 8

    def test_head_zero_raises(self, tiny_store):
        with pytest.raises(SchemaError):
            tiny_store.head(0)

    def test_take_reorders_rows(self, tiny_store):
        sub = tiny_store.take([7, 0])
        assert sub.num_rows == 2
        assert list(sub.column("a")) == [3, 0]

    def test_take_rejects_2d(self, tiny_store):
        with pytest.raises(SchemaError):
            tiny_store.take(np.array([[0, 1]]))

    def test_contains(self, tiny_store):
        assert "a" in tiny_store
        assert "zzz" not in tiny_store


class TestCounting:
    def test_value_counts_full(self, tiny_store):
        counts = tiny_store.value_counts("a")
        assert counts.tolist() == [2, 2, 2, 2]
        assert counts.dtype == np.int64

    def test_value_counts_prefix(self, tiny_store):
        counts = tiny_store.value_counts("a", num_rows=3)
        assert counts.tolist() == [2, 1, 0, 0]

    def test_value_counts_has_declared_length(self):
        store = ColumnStore({"a": np.array([0, 0])}, support_sizes={"a": 5})
        assert store.value_counts("a").shape == (5,)

    def test_memory_bytes_positive(self, tiny_store):
        assert tiny_store.memory_bytes() > 0


class TestTrustedFastPath:
    """Derived stores must skip ``__init__``'s O(cells) re-validation."""

    def test_derived_stores_never_revalidate(self, tiny_store, monkeypatch):
        def boom(self, *args, **kwargs):
            raise AssertionError("derived store re-ran __init__ validation")

        monkeypatch.setattr(ColumnStore, "__init__", boom)
        selected = tiny_store.select(["b", "a"])
        prefix = tiny_store.head(4)
        taken = tiny_store.take(np.array([3, 1, 5]))
        assert selected.attributes == ("b", "a")
        assert prefix.num_rows == 4
        assert taken.num_rows == 3

    def test_fast_path_matches_validated_construction(self, tiny_store):
        names = ["b", "a"]
        derived = tiny_store.select(names).head(5)
        rebuilt = ColumnStore(
            {n: tiny_store.column(n)[:5] for n in names},
            support_sizes={n: tiny_store.support_size(n) for n in names},
        )
        assert derived.attributes == rebuilt.attributes
        assert derived.num_rows == rebuilt.num_rows
        for n in names:
            np.testing.assert_array_equal(derived.column(n), rebuilt.column(n))
            assert derived.support_size(n) == rebuilt.support_size(n)

    def test_derived_columns_stay_read_only(self, tiny_store):
        for derived in (
            tiny_store.select(["a"]),
            tiny_store.head(3),
            tiny_store.take(np.array([0, 2])),
        ):
            with pytest.raises(ValueError):
                derived.column("a")[0] = 9

    def test_take_boolean_mask_row_count(self, tiny_store):
        mask = np.zeros(tiny_store.num_rows, dtype=bool)
        mask[[1, 4]] = True
        taken = tiny_store.take(mask)
        assert taken.num_rows == 2
        assert len(taken) == 2


class TestFingerprintMemo:
    def test_second_call_does_not_reread_columns(self, tiny_store, monkeypatch):
        first = tiny_store.fingerprint()

        def no_reads(name):
            raise AssertionError(f"fingerprint re-read column {name!r}")

        monkeypatch.setattr(tiny_store, "column", no_reads)
        assert tiny_store.fingerprint() == first

    def test_derived_stores_hash_their_own_columns(self, tiny_store):
        parent = tiny_store.fingerprint()
        derived = tiny_store.head(4)
        assert derived.fingerprint() != parent
        rebuilt = ColumnStore(
            {n: tiny_store.column(n)[:4] for n in tiny_store.attributes},
            support_sizes=tiny_store.support_sizes(),
        )
        assert derived.fingerprint() == rebuilt.fingerprint()
