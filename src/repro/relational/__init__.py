"""Minimal in-memory relational substrate.

The paper operates on a single relational table with three kinds of columns
(Section 2):

* **identifying** columns that directly identify an individual (SSN),
* **quasi-identifying** columns that can be linked with external data sets to
  re-identify individuals (age, zip code, ...), and
* **other** columns carrying no identifying information.

The framework needs only a small slice of relational functionality: a typed
schema, one column-store table with insert/delete/update, projections,
group-by counting (for bin sizes) and the range-delete used by the
Subset-Deletion attack of the evaluation
(``DELETE FROM R WHERE SSN > lval AND SSN < uval``).  This package provides
exactly that, with no external dependencies, so the rest of the library can
treat "the database" as a plain Python object.
"""

from repro.relational.schema import Column, ColumnKind, ColumnType, TableSchema
from repro.relational.table import ColumnRow, ColumnStore, Row, Table, TypedColumn
from repro.relational.query import (
    delete_where,
    equals,
    group_by_count,
    in_range,
    project,
    select_where,
)

__all__ = [
    "Column",
    "ColumnKind",
    "ColumnType",
    "TableSchema",
    "Row",
    "Table",
    "ColumnRow",
    "ColumnStore",
    "TypedColumn",
    "select_where",
    "delete_where",
    "project",
    "group_by_count",
    "equals",
    "in_range",
]
