"""Typed, NumPy-backed columns for the in-memory column store.

A :class:`Column` owns a contiguous NumPy array plus the logical type
metadata the query layer needs (logical type, byte width, optional
dictionary for encoded strings, optional fixed-point scale for decimals).

Columns are deliberately immutable after construction: OLAP workloads in
the paper are read-only, and immutability lets compiled programs alias the
underlying arrays without defensive copies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..errors import StorageError


class LogicalType(enum.Enum):
    """Logical column types supported by the store.

    The physical representation is always an integer or float NumPy array;
    strings are dictionary-encoded (see :mod:`repro.storage.compression`)
    and decimals are stored fixed-point, exactly as the paper's evaluation
    setup describes (dictionary encoding, null suppression, fixed-point
    storage).
    """

    INT8 = "int8"
    INT16 = "int16"
    INT32 = "int32"
    INT64 = "int64"
    FLOAT64 = "float64"
    DECIMAL = "decimal"  # fixed-point, physically int64
    DATE = "date"  # days since 1970-01-01, physically int32
    STRING = "string"  # dictionary-encoded, physically int32 codes

    @property
    def numpy_dtype(self) -> np.dtype:
        """Physical NumPy dtype used to store this logical type."""
        mapping = {
            LogicalType.INT8: np.dtype(np.int8),
            LogicalType.INT16: np.dtype(np.int16),
            LogicalType.INT32: np.dtype(np.int32),
            LogicalType.INT64: np.dtype(np.int64),
            LogicalType.FLOAT64: np.dtype(np.float64),
            LogicalType.DECIMAL: np.dtype(np.int64),
            LogicalType.DATE: np.dtype(np.int32),
            LogicalType.STRING: np.dtype(np.int32),
        }
        return mapping[self]

    @property
    def byte_width(self) -> int:
        """Physical width in bytes of one stored value."""
        return self.numpy_dtype.itemsize


@dataclass(frozen=True)
class Column:
    """An immutable typed column.

    Parameters
    ----------
    name:
        Column name, unique within its table.
    logical_type:
        Logical type of the values (see :class:`LogicalType`).
    values:
        Physical values. Stored read-only.
    dictionary:
        For ``STRING`` columns, the code -> string dictionary.
    scale:
        For ``DECIMAL`` columns, the power-of-ten scale (values are stored
        multiplied by ``10**scale``).
    """

    name: str
    logical_type: LogicalType
    values: np.ndarray
    dictionary: Optional[tuple] = None
    scale: int = 0

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=self.logical_type.numpy_dtype)
        values = np.ascontiguousarray(values)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        # Lazy encoded-access surface (descriptor + code array), cached
        # on first touch; the dataset cache seeds these from disk.
        object.__setattr__(self, "_encoding", None)
        object.__setattr__(self, "_encoded", None)
        if self.logical_type is LogicalType.STRING and self.dictionary is None:
            raise StorageError(
                f"string column {self.name!r} requires a dictionary"
            )
        if self.dictionary is not None:
            object.__setattr__(self, "dictionary", tuple(self.dictionary))
        if self.scale < 0:
            raise StorageError(f"negative decimal scale on {self.name!r}")

    def __len__(self) -> int:
        return int(self.values.shape[0])

    @property
    def nbytes(self) -> int:
        """Physical size of the column data in bytes."""
        return int(self.values.nbytes)

    @property
    def byte_width(self) -> int:
        """Width of one physical value in bytes."""
        return self.logical_type.byte_width

    @property
    def encoding(self):
        """Descriptor of this column's physical code stream.

        A :class:`~repro.storage.compression.ColumnEncoding` naming the
        codec and the code width. Metadata only — computing it scans the
        stored range once but materializes nothing. Cached.
        """
        if self._encoding is None:
            from .compression import column_encoding

            object.__setattr__(self, "_encoding", column_encoding(self))
        return self._encoding

    def encoded_values(self) -> np.ndarray:
        """The physical code stream: the primary scan surface.

        For a compressed column this is the stored integers narrowed to
        the codec's width (dictionary codes, null-suppressed ints,
        scaled decimals) — *value-identical* to ``values``, so
        predicates, set probes and key extraction read the same numbers
        from fewer bytes. For codec "none" it aliases ``values``.
        ``decode()`` remains the explicit late-materialization step.

        Materialized lazily and cached; the dataset cache seeds this
        with a memory-mapped code file instead.
        """
        if self._encoded is None:
            enc = self.encoding
            if not enc.compressed:
                object.__setattr__(self, "_encoded", self.values)
            else:
                codes = self.values.astype(np.dtype(enc.dtype))
                codes.setflags(write=False)
                object.__setattr__(self, "_encoded", codes)
        return self._encoded

    def seed_encoded(self, encoding, codes: np.ndarray) -> None:
        """Install a precomputed code stream (dataset-cache mmap path).

        ``codes`` must be the value-identical narrow representation the
        column would compute itself; the dataset cache persists exactly
        that, so shard workers map codes from disk instead of paying the
        ``astype`` per process.
        """
        if codes.dtype != np.dtype(encoding.dtype):
            raise StorageError(
                f"seeded codes dtype {codes.dtype} does not match "
                f"encoding {encoding.dtype} on {self.name!r}"
            )
        if codes.shape[0] != self.values.shape[0]:
            raise StorageError(
                f"seeded codes length mismatch on {self.name!r}"
            )
        object.__setattr__(self, "_encoding", encoding)
        object.__setattr__(self, "_encoded", codes)

    def decode(self) -> np.ndarray:
        """Return the *logical* values (decoded strings / scaled decimals).

        Intended for result presentation and tests, not for hot paths.
        """
        if self.logical_type is LogicalType.STRING:
            lookup = np.asarray(self.dictionary, dtype=object)
            return lookup[self.values]
        if self.logical_type is LogicalType.DECIMAL and self.scale:
            return self.values / float(10**self.scale)
        return self.values

    def code_for(self, text: str) -> int:
        """Return the dictionary code of ``text`` in a STRING column.

        Raises :class:`StorageError` if the value is not in the dictionary,
        which callers use to fold always-false predicates.
        """
        if self.logical_type is not LogicalType.STRING:
            raise StorageError(f"column {self.name!r} is not a string column")
        try:
            return self.dictionary.index(text)
        except ValueError as exc:
            raise StorageError(
                f"value {text!r} not in dictionary of {self.name!r}"
            ) from exc

    def with_values(self, values: np.ndarray) -> "Column":
        """Return a copy of this column's metadata over new values."""
        return Column(
            name=self.name,
            logical_type=self.logical_type,
            values=values,
            dictionary=self.dictionary,
            scale=self.scale,
        )


def int_column(
    name: str,
    values: Union[Sequence[int], np.ndarray],
    logical_type: LogicalType = LogicalType.INT64,
) -> Column:
    """Convenience constructor for integer columns."""
    if logical_type not in (
        LogicalType.INT8,
        LogicalType.INT16,
        LogicalType.INT32,
        LogicalType.INT64,
        LogicalType.DATE,
    ):
        raise StorageError(f"{logical_type} is not an integer logical type")
    return Column(name=name, logical_type=logical_type, values=np.asarray(values))


def decimal_column(
    name: str,
    values: Union[Sequence[float], np.ndarray],
    scale: int = 2,
) -> Column:
    """Build a fixed-point DECIMAL column from float values.

    Values are rounded to ``scale`` decimal places and stored as int64
    multiplied by ``10**scale`` — the paper's fixed-point storage scheme
    (:func:`~repro.storage.compression.fixed_point_encode`, which
    rejects values that overflow int64).
    """
    from .compression import fixed_point_encode

    return Column(
        name=name,
        logical_type=LogicalType.DECIMAL,
        values=fixed_point_encode(values, scale),
        scale=scale,
    )


def string_column(name: str, values: Sequence[str]) -> Column:
    """Build a dictionary-encoded STRING column from raw strings.

    The dictionary is sorted so that code order matches lexicographic
    order, allowing range predicates on encoded values
    (:func:`~repro.storage.compression.dictionary_encode`, which
    rejects strings containing NUL).
    """
    from .compression import dictionary_encode

    encoded = dictionary_encode(values)
    return Column(
        name=name,
        logical_type=LogicalType.STRING,
        values=encoded.codes,
        dictionary=encoded.dictionary,
    )


def date_column(name: str, days: Union[Sequence[int], np.ndarray]) -> Column:
    """Build a DATE column from day numbers (days since 1970-01-01)."""
    return Column(name=name, logical_type=LogicalType.DATE, values=np.asarray(days))
