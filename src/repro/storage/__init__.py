"""In-memory column-store substrate: columns, tables, bitmaps, FK indexes."""

from .bitmap import (
    BlockCompressedBitmap,
    PositionalBitmap,
    bitmap_from_mask,
    maybe_compress,
)
from .column import (
    Column,
    LogicalType,
    date_column,
    decimal_column,
    int_column,
    string_column,
)
from .compression import (
    DictionaryEncoding,
    dictionary_encode,
    fixed_point_decode,
    fixed_point_encode,
)
from .database import Database
from .fkindex import ForeignKeyIndex
from .table import Catalog, ForeignKey, Table, make_table

__all__ = [
    "BlockCompressedBitmap",
    "Catalog",
    "Column",
    "Database",
    "DictionaryEncoding",
    "ForeignKey",
    "ForeignKeyIndex",
    "LogicalType",
    "PositionalBitmap",
    "Table",
    "bitmap_from_mask",
    "date_column",
    "decimal_column",
    "dictionary_encode",
    "fixed_point_decode",
    "fixed_point_encode",
    "int_column",
    "make_table",
    "maybe_compress",
    "string_column",
]
