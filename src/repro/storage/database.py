"""The Database facade: catalog + foreign-key indexes.

A :class:`Database` is what code-generation strategies compile against:
it resolves tables, exposes raw column arrays, and owns the
referential-integrity foreign-key indexes that positional bitmaps probe
through (built eagerly at registration time, so queries never pay for
them — matching the paper's "these indexes are necessary" argument).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import SchemaError
from .fkindex import ForeignKeyIndex
from .table import Catalog, ForeignKey, Table


class Database:
    """Tables plus eagerly-built foreign-key indexes."""

    def __init__(self) -> None:
        self.catalog = Catalog()
        self._fk_indexes: Dict[tuple, ForeignKeyIndex] = {}

    def add_table(self, table: Table) -> None:
        self.catalog.add_table(table)

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    def add_foreign_key(
        self, table: str, column: str, ref_table: str, ref_column: str
    ) -> ForeignKeyIndex:
        """Declare a foreign key and build its offset index immediately."""
        fk = ForeignKey(
            table=table, column=column, ref_table=ref_table, ref_column=ref_column
        )
        self.catalog.add_foreign_key(fk)
        index = ForeignKeyIndex(
            referencing=self.table(table),
            fk_column=column,
            referenced=self.table(ref_table),
            pk_column=ref_column,
        )
        self._fk_indexes[(table, column)] = index
        return index

    def fk_index(self, table: str, column: str) -> ForeignKeyIndex:
        try:
            return self._fk_indexes[(table, column)]
        except KeyError as exc:
            raise SchemaError(
                f"no foreign-key index on {table}.{column}; declare the "
                "foreign key when loading data"
            ) from exc

    def has_fk_index(self, table: str, column: str) -> bool:
        return (table, column) in self._fk_indexes

    def data(self, name: str) -> Dict[str, np.ndarray]:
        """Raw column arrays of a table, keyed by column name."""
        table = self.table(name)
        return {col.name: col.values for col in table.iter_columns()}

    def scan_view(
        self, name: str, encodings: tuple = ()
    ) -> Dict[str, np.ndarray]:
        """Column arrays of a table with chosen columns served encoded.

        ``encodings`` is a pipeline's access-encoding decision: a tuple
        of ``(column, codec_description)`` pairs naming the columns the
        planner chose to scan as physical codes. Those columns come back
        as their narrow code arrays (value-identical to the stored
        representation — see :meth:`Column.encoded_values`); everything
        else comes back as the stored array, exactly like :meth:`data`.
        """
        if not encodings:
            return self.data(name)
        encoded = {column for column, _ in encodings}
        table = self.table(name)
        return {
            col.name: (
                col.encoded_values()
                if col.name in encoded
                else col.values
            )
            for col in table.iter_columns()
        }

    def column_values(
        self, table: str, column: str, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        values = self.table(table)[column]
        if rows is None:
            return values
        return values[rows]
