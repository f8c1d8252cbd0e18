"""The column-store table every layer of the protection framework runs on.

A :class:`Table` couples a :class:`~repro.relational.schema.TableSchema` with
a :class:`ColumnStore`: one :class:`TypedColumn` per schema field
(``array('q')`` for int cells, ``array('d')`` for float cells, a plain list
for strings / intervals / mixed values).  Binning's rewrite, tuple framing,
detection voting and the attack simulators are per-column sweeps, and they
read the buffers directly through :meth:`Table.column_sequences`.  Rows are
still addressable: iteration and indexing return :class:`ColumnRow` views
that behave like the row dicts a caller would expect.

The class offers the operations the protection framework and the attack
simulators need:

* insertion / deletion / in-place update,
* projection of one or several columns,
* group-by counting (bin sizes for the k-anonymity checks),
* deep and copy-on-write copies (attacks operate on copies of the
  outsourced table),
* CSV round-trips: :class:`CsvParsePlan` is the one CSV reader, and
  :func:`repro.relational.io.write_table_rows` the one writer.

Two invariants govern the design:

* **Exact cell types.**  Typed columns preserve the type of every cell
  (``30`` stays ``int``, ``2.5`` stays ``float``); a type mismatch spills the
  column to a plain object list rather than coercing, so every downstream
  hash and CSV byte is what the stored values dictate.
* **Copy-on-write at store granularity.**  :meth:`Table.lazy_copy` shares
  the whole column store; the first mutation through either table's API
  copies the store once.  Writes through a :class:`ColumnRow` obtained by iteration
  bypass that check — use :meth:`Table.mutable_row` whenever the table may
  be a lazy copy.

``tests/oracles/row_store.py`` keeps the row-dict table this store replaced;
the equivalence suites hold the two to bit-identical results.
"""

from __future__ import annotations

import csv
import itertools
from array import array
from collections import Counter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.relational.io import coerce_numeric_cell, write_table_rows
from repro.relational.schema import ColumnType, TableSchema

__all__ = [
    "Row",
    "Table",
    "TypedColumn",
    "ColumnStore",
    "ColumnRow",
    "CsvParsePlan",
]

Row = dict[str, object]

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


class TypedColumn:
    """One column of cells with a storage kind decided by the data.

    ``kind`` is ``"q"`` (int64 array), ``"d"`` (float64 array), ``"o"``
    (plain object list) or ``None`` while the column is still empty.  The
    first appended value decides the kind; a later value of a different exact
    type (or an int outside the 64-bit range) *spills* the column to an
    object list so the stored values stay exactly the values written.
    ``bool`` deliberately spills (``array('q')`` would silently turn ``True``
    into ``1``).
    """

    __slots__ = ("kind", "data")

    def __init__(self, kind: str | None = None, data: "array | list | None" = None) -> None:
        self.kind = kind
        self.data = data if data is not None else []

    @classmethod
    def from_values(cls, values: Iterable[object]) -> "TypedColumn":
        """Bulk constructor: one type scan, then a single array fill."""
        cells = values if isinstance(values, list) else list(values)
        if not cells:
            return cls()
        first = type(cells[0])
        if first is int and all(type(v) is int for v in cells):
            try:
                return cls("q", array("q", cells))
            except OverflowError:
                pass
        elif first is float and all(type(v) is float for v in cells):
            return cls("d", array("d", cells))
        return cls("o", cells)

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator[object]:
        return iter(self.data)

    def __getitem__(self, index: int) -> object:
        return self.data[index]

    def _spill(self) -> None:
        self.data = list(self.data)
        self.kind = "o"

    def append(self, value: object) -> None:
        kind = self.kind
        vtype = type(value)
        if kind is None:
            if vtype is int and _INT64_MIN <= value <= _INT64_MAX:
                self.kind, self.data = "q", array("q", (value,))
            elif vtype is float:
                self.kind, self.data = "d", array("d", (value,))
            else:
                self.kind = "o"
                self.data.append(value)
            return
        if kind == "q":
            if vtype is int:
                try:
                    self.data.append(value)
                    return
                except OverflowError:
                    pass
        elif kind == "d":
            if vtype is float:
                self.data.append(value)
                return
        else:
            self.data.append(value)
            return
        self._spill()
        self.data.append(value)

    def extend(self, values: Iterable[object]) -> None:
        for value in values:
            self.append(value)

    def __setitem__(self, index: int, value: object) -> None:
        kind = self.kind
        vtype = type(value)
        if kind == "q" and vtype is int:
            try:
                self.data[index] = value
                return
            except OverflowError:
                pass
        elif kind == "d" and vtype is float:
            self.data[index] = value
            return
        elif kind == "o":
            self.data[index] = value
            return
        else:
            # Empty (kind None) columns have no valid index; let the
            # underlying list raise.
            if kind is None:
                self.data[index] = value
                return
        self._spill()
        self.data[index] = value

    def tolist(self) -> list[object]:
        data = self.data
        return data.tolist() if isinstance(data, array) else list(data)

    def copy(self) -> "TypedColumn":
        return TypedColumn(self.kind, self.data[:])

    def take(self, indices: Sequence[int]) -> "TypedColumn":
        """A new column holding ``data[i]`` for each index, same kind."""
        data = self.data
        if isinstance(data, array):
            return TypedColumn(self.kind, array(data.typecode, (data[i] for i in indices)))
        return TypedColumn(self.kind if data else None, [data[i] for i in indices])

    def slice(self, start: int, stop: int) -> "TypedColumn":
        return TypedColumn(self.kind, self.data[start:stop])


class ColumnStore:
    """A set of equally long :class:`TypedColumn` buffers, one per field."""

    __slots__ = ("names", "columns", "row_count")

    def __init__(
        self,
        names: Sequence[str],
        columns: dict[str, TypedColumn] | None = None,
        row_count: int = 0,
    ) -> None:
        self.names = tuple(names)
        self.columns = (
            columns if columns is not None else {name: TypedColumn() for name in self.names}
        )
        self.row_count = row_count

    def append_row(self, row: Mapping[str, object]) -> None:
        for name in self.names:
            self.columns[name].append(row[name])
        self.row_count += 1

    def copy(self) -> "ColumnStore":
        return ColumnStore(
            self.names,
            {name: column.copy() for name, column in self.columns.items()},
            self.row_count,
        )

    def take(self, indices: Sequence[int]) -> "ColumnStore":
        return ColumnStore(
            self.names,
            {name: column.take(indices) for name, column in self.columns.items()},
            len(indices),
        )

    def slice(self, start: int, stop: int) -> "ColumnStore":
        taken = {name: column.slice(start, stop) for name, column in self.columns.items()}
        length = len(range(*slice(start, stop).indices(self.row_count)))
        return ColumnStore(self.names, taken, length)


class ColumnRow:
    """A dict-like view of one row of a :class:`ColumnStore`.

    Reads and writes go straight to the column buffers, so the view behaves
    like a row dict — including ``dict == view`` comparisons
    (``dict.__eq__`` defers to the reflected operator).  A view stays bound
    to the store it was created from: after a copy-on-write store swap it
    keeps reading the *old* buffers.
    """

    __slots__ = ("_store", "_index")

    def __init__(self, store: ColumnStore, index: int) -> None:
        self._store = store
        self._index = index

    def __getitem__(self, name: str) -> object:
        return self._store.columns[name][self._index]

    def __setitem__(self, name: str, value: object) -> None:
        columns = self._store.columns
        if name not in columns:
            raise KeyError(name)
        columns[name][self._index] = value

    def __contains__(self, name: object) -> bool:
        return name in self._store.columns

    def __iter__(self) -> Iterator[str]:
        return iter(self._store.names)

    def __len__(self) -> int:
        return len(self._store.names)

    def keys(self) -> tuple[str, ...]:
        return self._store.names

    def values(self) -> list[object]:
        index = self._index
        columns = self._store.columns
        return [columns[name][index] for name in self._store.names]

    def items(self) -> list[tuple[str, object]]:
        index = self._index
        columns = self._store.columns
        return [(name, columns[name][index]) for name in self._store.names]

    def get(self, name: str, default: object = None) -> object:
        column = self._store.columns.get(name)
        return default if column is None else column[self._index]

    def update(self, other: Mapping[str, object] = (), **kwargs: object) -> None:
        items = other.items() if hasattr(other, "items") else other
        for name, value in items:
            self[name] = value
        for name, value in kwargs.items():
            self[name] = value

    def copy(self) -> Row:
        return dict(self.items())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (dict, ColumnRow)):
            if len(other) != len(self):
                return False
            try:
                return all(other[name] == self[name] for name in self._store.names)
            except KeyError:
                return False
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable, like a row dict

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return repr(dict(self.items()))


class CsvParsePlan:
    """Positional CSV parsing straight into columns — the one CSV reader.

    Fieldnames come from the first record with duplicates resolved
    last-wins, blank records are skipped, short records pad missing cells
    with the text ``"None"``, extra cells are ignored, and a schema column
    absent from the header raises ``ValueError``.  Numeric cells go through
    :func:`~repro.relational.io.coerce_numeric_cell`; categorical cells are
    kept verbatim.  These are ``csv.DictReader``'s semantics, which the
    row-store reference in ``tests/oracles/row_store.py`` pins cell for cell.
    """

    __slots__ = ("fields",)

    def __init__(self, fieldnames: Sequence[str], schema: TableSchema) -> None:
        positions: dict[str, int] = {}
        for position, name in enumerate(fieldnames):
            positions[name] = position  # duplicate header: last occurrence wins
        self.fields = [
            (column.name, positions.get(column.name), column.ctype is ColumnType.NUMERIC)
            for column in schema
        ]

    def extend_table(
        self,
        table: "Table",
        records: Iterable[Sequence[str]],
        limit: int | None = None,
    ) -> int:
        """Parse up to *limit* records into *table*; return the number parsed."""
        table._unshare()
        store = table._store
        coerce = coerce_numeric_cell
        plan = [
            (name, position, numeric, store.columns[name].append)
            for name, position, numeric in self.fields
        ]
        count = 0
        for record in records:
            if not record:
                continue  # blank record
            width = len(record)
            for name, position, numeric, append in plan:
                if position is None:
                    raise ValueError(f"CSV row is missing column {name!r}")
                text = record[position] if position < width else "None"
                append(coerce(text) if numeric else text)
            count += 1
            store.row_count += 1
            if limit is not None and count >= limit:
                break
        return count


class Table:
    """An ordered collection of rows conforming to a schema, stored by column."""

    def __init__(self, schema: TableSchema, rows: Iterable[Mapping[str, object]] | None = None) -> None:
        self._schema = schema
        self._store = ColumnStore(schema.column_names)
        # True while the store's buffers are shared with another table
        # (lazy_copy); the first mutation copies the store.
        self._shared = False
        if rows is not None:
            self.insert_many(rows)

    # ------------------------------------------------------------- properties
    @property
    def schema(self) -> TableSchema:
        return self._schema

    @property
    def rows(self) -> list[ColumnRow]:
        """Row views over the store (see :class:`ColumnRow` for semantics)."""
        store = self._store
        return [ColumnRow(store, index) for index in range(store.row_count)]

    def __len__(self) -> int:
        return self._store.row_count

    def __iter__(self) -> Iterator[ColumnRow]:
        store = self._store
        return (ColumnRow(store, index) for index in range(store.row_count))

    def __getitem__(self, index: int) -> ColumnRow:
        count = self._store.row_count
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("row index out of range")
        return ColumnRow(self._store, index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self._schema != other._schema or len(self) != len(other):
            return False
        return all(
            self.column_values(name) == other.column_values(name)
            for name in self._schema.column_names
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Table(columns={self._schema.column_names}, rows={len(self)})"

    # -------------------------------------------------------- copy-on-write
    def _unshare(self) -> None:
        if self._shared:
            self._store = self._store.copy()
            self._shared = False

    # ------------------------------------------------------------ row editing
    def insert(self, row: Mapping[str, object]) -> None:
        """Validate *row* against the schema and append it."""
        as_dict = dict(row)
        self._schema.validate_row(as_dict)
        self._unshare()
        self._store.append_row(as_dict)

    def insert_many(self, rows: Iterable[Mapping[str, object]]) -> None:
        """Bulk insert: one copy-on-write check, then straight appends per column."""
        self._unshare()
        validate = self._schema.validate_row
        store = self._store
        for row in rows:
            as_dict = dict(row)
            validate(as_dict)
            store.append_row(as_dict)

    def mutable_row(self, index: int) -> ColumnRow:
        """The row at *index*, writable without touching any table sharing the store."""
        self._unshare()
        return self[index]

    def delete_indices(self, indices: Iterable[int]) -> int:
        """Delete rows at the given positions; return the number deleted."""
        to_drop = set(indices)
        count = self._store.row_count
        if any(index < 0 or index >= count for index in to_drop):
            raise IndexError("row index out of range")
        if not to_drop:
            return 0
        kept = [index for index in range(count) if index not in to_drop]
        # One index mask applied to every column; the new store also makes
        # the table private (deletes never write through shared buffers).
        self._store = self._store.take(kept)
        self._shared = False
        return count - len(kept)

    def delete_where(self, predicate: Callable[[Row], bool]) -> int:
        """Delete every row satisfying *predicate*; return the number deleted."""
        store = self._store
        count = store.row_count
        kept = [index for index in range(count) if not predicate(ColumnRow(store, index))]
        if len(kept) == count:
            return 0
        self._store = store.take(kept)
        self._shared = False
        return count - len(kept)

    def update_where(self, predicate: Callable[[Row], bool], updater: Callable[[Row], None]) -> int:
        """Apply *updater* in place to every row satisfying *predicate*."""
        touched = 0
        for index in range(len(self)):
            if predicate(self[index]):
                updater(self.mutable_row(index))
                touched += 1
        return touched

    def set_cells(self, name: str, indices: Sequence[int], values: Sequence[object]) -> None:
        """Write ``values[j]`` into column *name* at row ``indices[j]``.

        The bulk-write counterpart of :meth:`column_sequences`: one
        copy-on-write check, then in-place writes to the column buffer.
        """
        self._schema.column(name)
        self._unshare()
        column = self._store.columns[name]
        for index, value in zip(indices, values):
            column[index] = value

    # --------------------------------------------------------------- querying
    def column_values(self, name: str) -> list[object]:
        """Project a single column (raises ``KeyError`` for unknown columns)."""
        self._schema.column(name)
        return self._store.columns[name].tolist()

    def distinct_values(self, name: str) -> set[object]:
        self._schema.column(name)
        return set(self._store.columns[name].data)

    def column_sequences(self, names: Sequence[str]) -> dict[str, Sequence]:
        """Read-only references to the raw buffers of *names*, for per-column sweeps."""
        columns = self._store.columns
        return {name: columns[name].data for name in names}

    def select(self, predicate: Callable[[Row], bool]) -> "Table":
        """Return a new table containing the rows satisfying *predicate*."""
        store = self._store
        indices = [
            index for index in range(store.row_count) if predicate(ColumnRow(store, index))
        ]
        selected = Table(self._schema)
        selected._store = store.take(indices)
        return selected

    def group_by_count(self, names: Sequence[str]) -> dict[tuple[object, ...], int]:
        """Count rows per combination of values of the given columns.

        This is the primitive behind every k-anonymity check: the bins of the
        paper are exactly the groups of this aggregation over the
        quasi-identifying columns.
        """
        for name in names:
            self._schema.column(name)
        columns = self._store.columns
        if len(names) == 1:
            return dict(Counter((value,) for value in columns[names[0]].data))
        return dict(Counter(zip(*(columns[name].data for name in names))))

    def value_counts(self, name: str) -> dict[object, int]:
        """Count rows per value of a single column."""
        self._schema.column(name)
        return dict(Counter(self._store.columns[name].data))

    # ------------------------------------------------------------------ copies
    def copy(self) -> "Table":
        """Deep copy of the column buffers (schema objects are immutable and shared)."""
        clone = Table(self._schema)
        clone._store = self._store.copy()
        return clone

    def lazy_copy(self) -> "Table":
        """Copy-on-write copy sharing the whole store until either side mutates.

        Orders of magnitude cheaper than :meth:`copy` for the attack and
        embedding pipelines, which touch a small fraction of the rows.
        """
        twin = Table(self._schema)
        twin._store = self._store
        twin._shared = True
        self._shared = True
        return twin

    def with_schema(self, schema: TableSchema) -> "Table":
        """Return a copy re-validated against a (compatible) new schema."""
        return Table(schema, self)

    @classmethod
    def from_validated_rows(cls, schema: TableSchema, rows: Iterable[Mapping[str, object]]) -> "Table":
        """A table over already-validated rows, appended without re-validation.

        For internal merges (e.g. concatenating shard results whose rows came
        out of validated tables).
        """
        table = cls(schema)
        store = table._store
        for row in rows:
            store.append_row(row)
        return table

    @classmethod
    def from_columns(cls, schema: TableSchema, columns: Mapping[str, Sequence[object]]) -> "Table":
        """Build a table directly from per-column value sequences.

        Each sequence may be a list of cells or a ready :class:`TypedColumn`
        (which is adopted as-is, so builders that already produced typed
        buffers pay no conversion).  All columns must share one length.
        """
        names = schema.column_names
        typed: dict[str, TypedColumn] = {}
        length: int | None = None
        for name in names:
            values = columns[name]
            column = values if isinstance(values, TypedColumn) else TypedColumn.from_values(values)
            if length is None:
                length = len(column)
            elif len(column) != length:
                raise ValueError("columns must all have the same length")
            typed[name] = column
        table = cls(schema)
        table._store = ColumnStore(tuple(names), typed, length or 0)
        return table

    def slice_view(self, start: int, stop: int) -> "Table":
        """A table over rows ``[start, stop)``, for the shard-parallel executor.

        The view holds its own column slices, so no mutation through either
        table reaches the other.
        """
        view = Table(self._schema)
        view._store = self._store.slice(start, stop)
        return view

    # --------------------------------------------------------------------- IO
    def to_csv(self, path: str) -> None:
        """Write the table to *path* as CSV with a header row."""
        with open(path, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerow(self._schema.column_names)
            write_table_rows(handle, self._schema, self)

    @classmethod
    def from_csv(cls, path: str, schema: TableSchema) -> "Table":
        """Read a CSV written by :meth:`to_csv`, coercing cells by column type."""
        with open(path, newline="", encoding="utf-8") as handle:
            return cls._from_records(schema, csv.reader(handle))

    @classmethod
    def from_csv_chunk(cls, schema: TableSchema, header: str, lines: Iterable[str]) -> "Table":
        """Parse one raw CSV chunk (header line + data lines) into columns."""
        return cls._from_records(schema, csv.reader(itertools.chain([header], lines)))

    @classmethod
    def _from_records(cls, schema: TableSchema, records: Iterator[Sequence[str]]) -> "Table":
        table = cls(schema)
        fieldnames = next(records, None)
        if fieldnames is not None:
            CsvParsePlan(fieldnames, schema).extend_table(table, records)
        return table
