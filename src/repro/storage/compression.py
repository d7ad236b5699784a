"""Compression codecs of the column store.

The paper's evaluation (Section IV) uses three well-known lightweight
compression techniques, each with exactly one implementation here:

1. **Dictionary encoding** for low-cardinality string columns
   (:func:`dictionary_encode`, which
   :func:`~repro.storage.column.string_column` calls).
2. **Null suppression** (byte-width minimisation) for integer columns:
   :func:`column_encoding` narrows every integer stream to
   :func:`narrowest_int_dtype` of its range, and
   :meth:`~repro.storage.column.Column.encoded_values` serves it.
3. **Fixed-point storage** for decimals (multiply by a power of ten and
   store as integers; :func:`fixed_point_encode`, which
   :func:`~repro.storage.column.decimal_column` calls).

Each codec round-trips exactly; the test suite asserts this by property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..errors import StorageError
from .column import Column, LogicalType


@dataclass(frozen=True)
class ColumnEncoding:
    """Descriptor of a column's physical code stream.

    The access path uses this to reason about encoded scans without
    materializing anything: ``codec`` names the scheme ("dict" for
    dictionary codes, "ns" for null-suppressed integers, "fxp" for
    fixed-point decimals narrowed below int64, "none" when the stored
    representation is already the narrowest), ``width`` is the physical
    bytes per code and ``decoded_width`` the bytes per value of the
    logical (decoded) stream the codes stand in for.

    All three codecs here are *value-preserving*: the code array holds
    the same integer values as the stored array, only narrower. That is
    what makes predicate evaluation on codes exact — comparisons,
    set-membership and key extraction read identical integers from a
    narrower stream, and ``decode`` (the ``astype`` back to the wide
    dtype) is a pure late-materialization step.
    """

    codec: str
    dtype: str
    width: int
    decoded_width: int

    @property
    def compressed(self) -> bool:
        return self.codec != "none"

    def describe(self) -> str:
        """Short form used in explain output: ``ns:int8(8B->1B)``."""
        if not self.compressed:
            return "none"
        return (
            f"{self.codec}:{self.dtype}"
            f"({self.decoded_width}B->{self.width}B)"
        )


def narrowest_int_dtype(lo: int, hi: int) -> np.dtype:
    """The narrowest signed dtype whose range covers ``[lo, hi]``."""
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return np.dtype(dtype)
    raise StorageError("value range exceeds int64")  # pragma: no cover


def column_encoding(column: Column) -> ColumnEncoding:
    """Descriptor of ``column``'s best value-preserving encoding.

    Pure metadata: inspects the stored range (one min/max scan) without
    materializing a code array. STRING columns narrow their dictionary
    codes ("dict"), DECIMAL columns narrow their scaled fixed-point
    integers ("fxp"), and every other integer column null-suppresses
    ("ns"). Columns whose stored dtype is already the narrowest — and
    float or empty columns — report codec "none".
    """
    values = column.values
    decoded_width = int(values.dtype.itemsize)
    if values.dtype.kind not in "iu" or values.size == 0:
        return ColumnEncoding(
            "none", values.dtype.name, decoded_width, decoded_width
        )
    dtype = narrowest_int_dtype(int(values.min()), int(values.max()))
    width = int(dtype.itemsize)
    if width >= decoded_width:
        return ColumnEncoding(
            "none", values.dtype.name, decoded_width, decoded_width
        )
    if column.logical_type is LogicalType.STRING:
        codec = "dict"
    elif column.logical_type is LogicalType.DECIMAL:
        codec = "fxp"
    else:
        codec = "ns"
    return ColumnEncoding(codec, dtype.name, width, decoded_width)


@dataclass(frozen=True)
class DictionaryEncoding:
    """Result of dictionary-encoding a string array."""

    codes: np.ndarray
    dictionary: Tuple[str, ...]

    def decode(self) -> np.ndarray:
        lookup = np.asarray(self.dictionary, dtype=object)
        return lookup[self.codes]


def dictionary_encode(values: Sequence[str]) -> DictionaryEncoding:
    """Dictionary-encode strings into int32 codes.

    The dictionary is sorted so code comparisons preserve lexicographic
    order, which lets encoded columns answer range predicates directly.
    """
    raw = [str(v) for v in values]
    if "\x00" in "".join(raw):
        # NumPy's fixed-width string arrays treat NUL as a terminator and
        # would silently truncate ("a\x00" == "a"), so the check reads
        # the Python strings; reject it as a C-string store would.
        raise StorageError("strings may not contain NUL characters")
    dictionary, codes = np.unique(
        np.asarray(raw, dtype=str), return_inverse=True
    )
    if dictionary.shape[0] > np.iinfo(np.int32).max:
        raise StorageError("dictionary too large for int32 codes")
    return DictionaryEncoding(
        codes=codes.astype(np.int32), dictionary=tuple(dictionary.tolist())
    )


def fixed_point_encode(values: np.ndarray, scale: int) -> np.ndarray:
    """Encode float values as fixed-point int64 at ``10**scale``."""
    if scale < 0:
        raise StorageError("fixed-point scale must be non-negative")
    scaled = np.rint(np.asarray(values, dtype=np.float64) * 10**scale)
    limit = float(np.iinfo(np.int64).max)
    if scaled.size and (np.abs(scaled) >= limit).any():
        raise StorageError("fixed-point value overflows int64")
    return scaled.astype(np.int64)


def fixed_point_decode(values: np.ndarray, scale: int) -> np.ndarray:
    """Decode fixed-point int64 values back to floats."""
    return np.asarray(values, dtype=np.float64) / 10**scale
