"""Tests for the compression codecs (repro.storage.compression) and the
encoded access path they feed."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.machine import PAPER_MACHINE
from repro.engine.session import Session
from repro.errors import StorageError
from repro.storage.column import (
    Column,
    LogicalType,
    decimal_column,
    int_column,
    string_column,
)
from repro.storage.compression import (
    dictionary_encode,
    fixed_point_decode,
    fixed_point_encode,
    narrowest_int_dtype,
)

from .conftest import compile_named


class TestDictionaryEncoding:
    def test_roundtrip(self):
        values = ["red", "green", "blue", "red", "blue"]
        enc = dictionary_encode(values)
        assert enc.decode().tolist() == values

    def test_dictionary_is_sorted_unique(self):
        enc = dictionary_encode(["b", "a", "b"])
        assert enc.dictionary == ("a", "b")

    def test_codes_dtype(self):
        enc = dictionary_encode(["x"])
        assert enc.codes.dtype == np.int32

    def test_range_predicates_work_on_codes(self):
        values = ["apple", "cherry", "banana"]
        enc = dictionary_encode(values)
        cutoff = enc.dictionary.index("banana")
        decoded = np.asarray(values)
        assert (
            (enc.codes <= cutoff).tolist()
            == (decoded <= "banana").tolist()
        )

    @given(
        st.lists(
            st.text(
                alphabet=st.characters(blacklist_characters="\x00"),
                max_size=8,
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, values):
        enc = dictionary_encode(values)
        assert enc.decode().tolist() == [str(v) for v in values]

    def test_nul_characters_rejected(self):
        with pytest.raises(StorageError):
            dictionary_encode(["a\x00b"])
        with pytest.raises(StorageError):
            dictionary_encode(["a", "a\x00"])  # a trailing NUL too


def null_suppressed(values):
    """The code stream null suppression serves for an int64 column."""
    return int_column("a", np.asarray(values, dtype=np.int64)).encoded_values()


class TestNullSuppression:
    """Null suppression is the ``ns`` codec of :func:`column_encoding`,
    served by :meth:`Column.encoded_values`."""

    def test_small_values_become_int8(self):
        assert null_suppressed([0, 100, -100]).dtype == np.int8

    def test_medium_values_become_int16(self):
        assert null_suppressed([0, 1000]).dtype == np.int16

    def test_large_values_stay_int64(self):
        assert null_suppressed([2**40]).dtype == np.int64

    def test_empty_array(self):
        col = int_column("a", np.asarray([], dtype=np.int64))
        assert col.encoding.codec == "none"
        assert col.encoded_values().dtype == np.int64

    def test_rejects_floats(self):
        col = Column("f", LogicalType.FLOAT64, np.asarray([1.5]))
        assert col.encoding.codec == "none"
        assert col.encoded_values() is col.values

    def test_suppressed_logical_type(self):
        assert int_column("a", [1, 2]).encoding.dtype == "int8"
        assert int_column("a", [2**20]).encoding.dtype == "int32"

    @given(
        st.lists(
            st.integers(min_value=-(2**62), max_value=2**62),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_lossless_property(self, values):
        assert null_suppressed(values).astype(np.int64).tolist() == values


class TestFixedPoint:
    def test_roundtrip(self):
        values = np.asarray([1.25, -3.5, 0.0])
        encoded = fixed_point_encode(values, 2)
        assert encoded.tolist() == [125, -350, 0]
        assert fixed_point_decode(encoded, 2).tolist() == values.tolist()

    def test_negative_scale_rejected(self):
        with pytest.raises(StorageError):
            fixed_point_encode(np.asarray([1.0]), -1)

    def test_overflow_detected(self):
        with pytest.raises(StorageError):
            fixed_point_encode(np.asarray([1e19]), 2)

    @given(
        st.lists(
            st.integers(min_value=-(10**12), max_value=10**12),
            min_size=1,
            max_size=30,
        ),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_integers_exact_property(self, values, scale):
        array = np.asarray(values, dtype=np.float64)
        encoded = fixed_point_encode(array, scale)
        decoded = fixed_point_decode(encoded, scale)
        assert decoded.tolist() == [float(v) for v in values]


class TestCompressIntColumn:
    def test_narrowest_type_chosen(self):
        col = int_column("a", np.asarray([1, 2, 3]))
        assert col.encoding.codec == "ns"
        assert col.encoding.describe() == "ns:int8(8B->1B)"

    def test_values_preserved(self):
        codes = null_suppressed([300, -300])
        assert codes.dtype == np.int16
        assert codes.tolist() == [300, -300]


class TestNarrowestIntDtype:
    def test_int8_boundaries_inclusive(self):
        assert narrowest_int_dtype(-128, 127) == np.int8
        assert narrowest_int_dtype(-129, 0) == np.int16
        assert narrowest_int_dtype(0, 128) == np.int16

    def test_int64_extremes(self):
        lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        assert narrowest_int_dtype(lo, hi) == np.int64


class TestColumnEncodingDescriptor:
    """The access path's metadata surface: codec / width / describe."""

    def test_string_column_reports_dict_codec(self):
        col = string_column("flag", ["A", "N", "R"] * 10)
        enc = col.encoding
        assert enc.codec == "dict"
        assert enc.width == 1
        assert enc.decoded_width == 4  # int32 dictionary codes stored
        assert enc.describe() == "dict:int8(4B->1B)"

    def test_decimal_column_reports_fxp_codec(self):
        col = decimal_column("price", [1.25, 900.5, 17.0], scale=2)
        enc = col.encoding
        assert enc.codec == "fxp"
        assert enc.decoded_width == 8
        assert enc.width < 8

    def test_wide_int_column_reports_ns_codec(self):
        col = int_column("qty", np.asarray([1, 50, 7], dtype=np.int64))
        assert col.encoding.codec == "ns"
        assert col.encoding.width == 1

    def test_already_narrow_column_reports_none(self):
        col = int_column(
            "qty",
            np.asarray([1, 2], dtype=np.int8),
            logical_type=LogicalType.INT8,
        )
        assert col.encoding.codec == "none"
        assert not col.encoding.compressed
        assert col.encoding.describe() == "none"

    def test_empty_column_reports_none(self):
        col = int_column("empty", np.asarray([], dtype=np.int64))
        assert col.encoding.codec == "none"

    def test_single_value_dictionary(self):
        # One distinct string: every code is 0, the narrowest stream
        # possible, and the round trip still reproduces the value.
        col = string_column("only", ["same"] * 8)
        assert col.encoding.codec == "dict"
        assert col.encoding.width == 1
        assert col.encoded_values().tolist() == [0] * 8
        assert col.decode().tolist() == ["same"] * 8

    def test_full_int64_range_cannot_narrow(self):
        info = np.iinfo(np.int64)
        col = int_column(
            "extremes", np.asarray([info.min, info.max], dtype=np.int64)
        )
        assert col.encoding.codec == "none"
        assert col.encoded_values() is col.values

    @given(
        st.lists(
            st.integers(
                min_value=np.iinfo(np.int64).min,
                max_value=np.iinfo(np.int64).max,
            ),
            min_size=0,
            max_size=64,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_encoded_stream_is_value_identical(self, values):
        col = int_column("v", np.asarray(values, dtype=np.int64))
        enc = col.encoding
        codes = col.encoded_values()
        assert codes.astype(np.int64).tolist() == values
        assert enc.width <= enc.decoded_width
        assert enc.compressed == (enc.width < enc.decoded_width)
        if enc.compressed:
            assert codes.dtype == np.dtype(enc.dtype)
            assert codes.itemsize == enc.width

    @given(
        st.lists(
            st.text(
                alphabet=st.characters(blacklist_characters="\x00"),
                max_size=6,
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_code_space_order_matches_value_order(self, values):
        # The translation rule behind code-space range predicates: the
        # dictionary is sorted, so code comparisons and string
        # comparisons agree pairwise.
        col = string_column("s", values)
        codes = col.encoded_values().astype(np.int64)
        decoded = col.decode()
        for i in range(len(values)):
            for j in range(len(values)):
                assert (codes[i] < codes[j]) == (
                    str(decoded[i]) < str(decoded[j])
                )


class TestSeedEncoded:
    def test_seeding_replaces_lazy_materialization(self):
        col = int_column("v", np.asarray([1, 2, 3], dtype=np.int64))
        enc = col.encoding
        codes = np.asarray([1, 2, 3], dtype=np.int8)
        col.seed_encoded(enc, codes)
        assert col.encoded_values() is codes

    def test_dtype_mismatch_rejected(self):
        col = int_column("v", np.asarray([1, 2, 3], dtype=np.int64))
        with pytest.raises(StorageError):
            col.seed_encoded(
                col.encoding, np.asarray([1, 2, 3], dtype=np.int16)
            )

    def test_length_mismatch_rejected(self):
        col = int_column("v", np.asarray([1, 2, 3], dtype=np.int64))
        with pytest.raises(StorageError):
            col.seed_encoded(
                col.encoding, np.asarray([1, 2], dtype=np.int8)
            )


class TestEncodedAccessPath:
    def test_access_bound_cell_costs_fewer_cycles_on_codes(
        self, tpch_db, tpch_config
    ):
        # Q6/swole is scan-dominated with every predicate column
        # compressible: streaming 2-byte dates and 4-byte prices instead
        # of 8-byte values must win outright (about 0.59x the cycles).
        machine = PAPER_MACHINE.scaled(tpch_config.machine_scale)
        cycles, applied = {}, {}
        for encoding in ("auto", "off"):
            compiled = compile_named(
                "Q6", "swole", tpch_db, machine=machine, encoding=encoding
            )
            cycles[encoding] = compiled.run(Session(machine=machine)).cycles
            applied[encoding] = [
                note
                for note in map(str, compiled.notes["passes"])
                if note.startswith("[access-encoding] applied")
            ]
        assert applied["auto"] and not applied["off"]
        assert cycles["auto"] < cycles["off"]
