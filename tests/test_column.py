"""Tests for typed columns (repro.storage.column)."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage.column import (
    Column,
    LogicalType,
    date_column,
    decimal_column,
    int_column,
    string_column,
)


class TestLogicalType:
    def test_int_widths(self):
        assert LogicalType.INT8.byte_width == 1
        assert LogicalType.INT16.byte_width == 2
        assert LogicalType.INT32.byte_width == 4
        assert LogicalType.INT64.byte_width == 8

    def test_decimal_is_int64(self):
        assert LogicalType.DECIMAL.numpy_dtype == np.dtype(np.int64)

    def test_date_is_int32(self):
        assert LogicalType.DATE.numpy_dtype == np.dtype(np.int32)

    def test_string_is_int32_codes(self):
        assert LogicalType.STRING.numpy_dtype == np.dtype(np.int32)


class TestColumn:
    def test_values_coerced_to_physical_dtype(self):
        col = Column("a", LogicalType.INT8, [1, 2, 3])
        assert col.values.dtype == np.int8

    def test_values_are_read_only(self):
        col = Column("a", LogicalType.INT32, [1, 2, 3])
        with pytest.raises(ValueError):
            col.values[0] = 9

    def test_len_and_nbytes(self):
        col = Column("a", LogicalType.INT32, np.arange(10))
        assert len(col) == 10
        assert col.nbytes == 40
        assert col.byte_width == 4

    def test_string_requires_dictionary(self):
        with pytest.raises(StorageError):
            Column("s", LogicalType.STRING, [0, 1])

    def test_negative_scale_rejected(self):
        with pytest.raises(StorageError):
            Column("d", LogicalType.DECIMAL, [1], scale=-1)

    def test_with_values_preserves_metadata(self):
        col = decimal_column("d", [1.25, 2.5], scale=2)
        other = col.with_values(np.asarray([100, 200]))
        assert other.scale == 2
        assert other.logical_type is LogicalType.DECIMAL


class TestConstructors:
    def test_int_column_default_int64(self):
        assert int_column("a", [1]).logical_type is LogicalType.INT64

    def test_int_column_rejects_non_integer_type(self):
        with pytest.raises(StorageError):
            int_column("a", [1], LogicalType.DECIMAL)

    def test_decimal_roundtrip(self):
        col = decimal_column("d", [1.25, -2.50, 0.0], scale=2)
        assert col.values.tolist() == [125, -250, 0]
        assert col.decode().tolist() == [1.25, -2.50, 0.0]

    def test_decimal_rounding(self):
        col = decimal_column("d", [0.005], scale=2)
        assert col.values.tolist() in ([0], [1])  # banker's rounding

    def test_decimal_overflow_rejected(self):
        # 1e17 at scale 2 is 1e19 > int64 max: stored, it would wrap.
        with pytest.raises(StorageError, match="overflows int64"):
            decimal_column("d", [1e17])

    def test_date_column(self):
        col = date_column("d", [0, 10_000])
        assert col.logical_type is LogicalType.DATE
        assert col.values.dtype == np.int32


class TestStringColumn:
    def test_dictionary_sorted(self):
        col = string_column("s", ["b", "a", "c", "a"])
        assert col.dictionary == ("a", "b", "c")

    def test_codes_preserve_order(self):
        col = string_column("s", ["b", "a", "c", "a"])
        assert col.decode().tolist() == ["b", "a", "c", "a"]

    def test_code_order_matches_lexicographic(self):
        col = string_column("s", ["apple", "banana", "cherry"])
        codes = col.values
        assert (np.diff(codes) > 0).all()

    def test_code_for_known_value(self):
        col = string_column("s", ["x", "y"])
        assert col.dictionary[col.code_for("y")] == "y"

    def test_code_for_unknown_value_raises(self):
        col = string_column("s", ["x"])
        with pytest.raises(StorageError):
            col.code_for("nope")

    def test_code_for_on_non_string_raises(self):
        col = int_column("a", [1])
        with pytest.raises(StorageError):
            col.code_for("x")

    def test_nul_rejected(self):
        # A trailing NUL would vanish in NumPy's fixed-width strings, so
        # "a" and "a\x00" would share one code.
        with pytest.raises(StorageError, match="NUL"):
            string_column("s", ["a", "a\x00"])

    def test_decode_strings(self):
        col = string_column("s", ["p", "q", "p"])
        assert col.decode().tolist() == ["p", "q", "p"]
