"""Row-store references for the column store that ships as ``Table``.

These are the row-dict forms of the relational layer, as they stood before
the column store became the only table:

* :class:`Table` — rows as plain ``dict`` objects with row-level
  copy-on-write (``_rows`` / ``_owned``);
* :func:`parse_cell`, :func:`parse_row`, :func:`iter_csv_rows` — the
  ``csv.DictReader`` reader, and :func:`write_csv_rows` /
  :func:`render_csv_rows`, the ``csv.DictWriter`` writers;
* :func:`rewrite_rows` — ``Binning(tbl, ultigen)`` one row dict at a time;
* :func:`collect_votes` — detection's vote loop over row dicts.

Equivalence suites run the shipped code and these side by side and require
bit-identical tables, CSV bytes and votes.  The bodies are kept verbatim;
the only edits let a row-store table compare equal to a shipped one
(``Table.__eq__`` accepts either) and let the shipped embed run over row
dicts (:class:`RowBinnedTable`, whose identifier projection is the row
store's ``itemgetter`` path).
"""

from __future__ import annotations

import csv
import io
import itertools
from collections import Counter
from dataclasses import fields
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.binning.binner import BinnedTable
from repro.binning.generalization import MultiColumnGeneralization
from repro.crypto.cipher import FieldEncryptor
from repro.relational.io import coerce_numeric_cell
from repro.relational.schema import ColumnType, TableSchema
from repro.relational.table import Table as ColumnTable
from repro.watermarking.hierarchical import (
    DetectionReport,
    DetectionVotes,
    HierarchicalWatermarker,
)
from repro.watermarking.mark import majority_vote

__all__ = [
    "Row",
    "Table",
    "RowBinnedTable",
    "parse_cell",
    "parse_row",
    "iter_csv_rows",
    "write_csv_rows",
    "render_csv_rows",
    "read_csv_chunk",
    "rewrite_rows",
    "rewrite_table",
    "ident_values",
    "collect_votes",
    "detect",
]

Row = dict[str, object]


# ------------------------------------------------------------------ CSV I/O
def parse_cell(text: str, ctype: ColumnType) -> object:
    """Parse one cell according to its column type.

    Categorical cells are kept verbatim (including whitespace — categorical
    values are opaque labels); numeric cells go through
    :func:`coerce_numeric_cell`.
    """
    if ctype is ColumnType.NUMERIC:
        return coerce_numeric_cell(text)
    return text


def parse_row(raw: Mapping[str, str], schema: TableSchema) -> dict[str, object]:
    """Parse a ``csv.DictReader`` row against *schema* (cells coerced by type)."""
    row: dict[str, object] = {}
    for column in schema:
        try:
            text = raw[column.name]
        except KeyError:
            raise ValueError(f"CSV row is missing column {column.name!r}") from None
        row[column.name] = parse_cell(str(text), column.ctype)
    return row


def iter_csv_rows(path: str, schema: TableSchema) -> Iterator[dict[str, object]]:
    """Stream parsed rows from a CSV file, one dict at a time.

    Constant-memory: rows are yielded as they are read, never collected.  The
    file must carry a header naming at least the schema's columns (extra
    columns are ignored, matching ``csv.DictReader`` semantics).
    """
    with open(path, newline="", encoding="utf-8") as handle:
        for raw in csv.DictReader(handle):
            yield parse_row(raw, schema)


def write_csv_rows(path: str, schema: TableSchema, rows: Iterable[Mapping[str, object]]) -> int:
    """Stream *rows* to a CSV file with a header; return the number written.

    Cells are serialised with ``str()``, which for :class:`Interval` values
    produces exactly the literal :func:`coerce_numeric_cell` parses back —
    the round-trip contract the detection path relies on.
    """
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=schema.column_names)
        writer.writeheader()
        for row in rows:
            writer.writerow({name: row[name] for name in schema.column_names})
            count += 1
    return count


def render_csv_rows(schema: TableSchema, rows: Iterable[Mapping[str, object]]) -> str:
    """*rows* through ``csv.DictWriter`` into a string (no header)."""
    names = schema.column_names
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=names)
    for row in rows:
        writer.writerow({name: row[name] for name in names})
    return buffer.getvalue()


# -------------------------------------------------------------------- table
class Table:
    """An ordered collection of rows conforming to a schema."""

    def __init__(self, schema: TableSchema, rows: Iterable[Mapping[str, object]] | None = None) -> None:
        self._schema = schema
        self._rows: list[Row] = []
        # None: every row dict is private to this table.  Otherwise a list
        # parallel to _rows; False marks rows shared with another table
        # (created by lazy_copy) that must be copied before mutation.
        self._owned: list[bool] | None = None
        if rows is not None:
            for row in rows:
                self.insert(row)

    # ------------------------------------------------------------- properties
    @property
    def schema(self) -> TableSchema:
        return self._schema

    @property
    def rows(self) -> list[Row]:
        """The underlying row list.

        Mutating the returned dicts bypasses the copy-on-write bookkeeping;
        callers that may hold a :meth:`lazy_copy` must go through
        :meth:`mutable_row` instead.
        """
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __getitem__(self, index: int) -> Row:
        return self._rows[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Table, ColumnTable)):
            return NotImplemented
        if self._schema != other._schema:
            return False
        if type(self) is Table and type(other) is Table:
            return self._rows == other._rows
        # At least one side is a different substrate (e.g. columnar): compare
        # column by column, which sidesteps per-row view materialisation.
        if len(self) != len(other):
            return False
        return all(
            self.column_values(name) == other.column_values(name)
            for name in self._schema.column_names
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Table(columns={self._schema.column_names}, rows={len(self._rows)})"

    # ------------------------------------------------------------ row editing
    def insert(self, row: Mapping[str, object]) -> None:
        """Validate *row* against the schema and append it."""
        as_dict = dict(row)
        self._schema.validate_row(as_dict)
        self._rows.append(as_dict)
        if self._owned is not None:
            self._owned.append(True)

    def insert_many(self, rows: Iterable[Mapping[str, object]]) -> None:
        for row in rows:
            self.insert(row)

    def mutable_row(self, index: int) -> Row:
        """The row at *index*, guaranteed private to this table.

        On a fully-owned table this simply returns the stored dict; on a
        :meth:`lazy_copy` a shared row is replaced by a private copy first
        (row-level copy-on-mutate).  Always write through the returned dict.
        """
        owned = self._owned
        row = self._rows[index]
        if owned is not None and not owned[index]:
            row = dict(row)
            self._rows[index] = row
            owned[index] = True
        return row

    def delete_indices(self, indices: Iterable[int]) -> int:
        """Delete rows at the given positions; return the number deleted."""
        to_drop = set(indices)
        if any(i < 0 or i >= len(self._rows) for i in to_drop):
            raise IndexError("row index out of range")
        before = len(self._rows)
        if self._owned is None:
            self._rows = [row for i, row in enumerate(self._rows) if i not in to_drop]
        else:
            rows: list[Row] = []
            flags: list[bool] = []
            for i, row in enumerate(self._rows):
                if i not in to_drop:
                    rows.append(row)
                    flags.append(self._owned[i])
            self._rows = rows
            self._owned = flags
        return before - len(self._rows)

    def delete_where(self, predicate: Callable[[Row], bool]) -> int:
        """Delete every row satisfying *predicate*; return the number deleted."""
        before = len(self._rows)
        if self._owned is None:
            self._rows = [row for row in self._rows if not predicate(row)]
        else:
            rows: list[Row] = []
            flags: list[bool] = []
            for row, flag in zip(self._rows, self._owned):
                if not predicate(row):
                    rows.append(row)
                    flags.append(flag)
            self._rows = rows
            self._owned = flags
        return before - len(self._rows)

    def update_where(self, predicate: Callable[[Row], bool], updater: Callable[[Row], None]) -> int:
        """Apply *updater* in place to every row satisfying *predicate*."""
        touched = 0
        for index, row in enumerate(self._rows):
            if predicate(row):
                updater(self.mutable_row(index))
                touched += 1
        return touched

    # --------------------------------------------------------------- querying
    def column_values(self, name: str) -> list[object]:
        """Project a single column (raises ``KeyError`` for unknown columns)."""
        self._schema.column(name)
        return [row[name] for row in self._rows]

    def distinct_values(self, name: str) -> set[object]:
        return set(self.column_values(name))

    def column_sequences(self, names: Sequence[str]) -> dict[str, Sequence] | None:
        """Raw per-column buffers for hot paths, or ``None`` on a row store.

        The columnar substrate returns read-only references to its internal
        column buffers so per-column sweeps can skip row materialisation;
        the row store returns ``None`` (building projections here would cost
        as much as the ``row[name]`` loop it replaces), and callers fall back
        to the row path.
        """
        return None

    def set_cells(self, name: str, indices: Sequence[int], values: Sequence[object]) -> None:
        """Write ``values[j]`` into column *name* at row ``indices[j]``.

        The bulk-write counterpart of :meth:`column_sequences`: the row store
        goes through :meth:`mutable_row` per index (preserving CoW), the
        columnar store writes the column buffer in place after a single
        copy-on-write check.
        """
        self._schema.column(name)
        for index, value in zip(indices, values):
            self.mutable_row(index)[name] = value

    def select(self, predicate: Callable[[Row], bool]) -> "Table":
        """Return a new table containing the rows satisfying *predicate*.

        The result shares the matching row dicts copy-on-write (like
        :meth:`from_validated_rows`): no row is copied up front, and the
        shared rows are marked in *both* tables so a later mutation through
        either table's API copies first.  Mutate results through
        :meth:`mutable_row`, never the dicts directly.
        """
        selected: list[Row] = []
        selected_indices: list[int] = []
        for i, row in enumerate(self._rows):
            if predicate(row):
                selected.append(row)
                selected_indices.append(i)
        result = Table(self._schema)
        result._rows = selected
        result._owned = [False] * len(selected)
        if selected:
            if self._owned is None:
                self._owned = [True] * len(self._rows)
            for i in selected_indices:
                self._owned[i] = False
        return result

    def group_by_count(self, names: Sequence[str]) -> dict[tuple[object, ...], int]:
        """Count rows per combination of values of the given columns.

        This is the primitive behind every k-anonymity check: the bins of the
        paper are exactly the groups of this aggregation over the
        quasi-identifying columns.
        """
        for name in names:
            self._schema.column(name)
        if len(names) == 1:
            name = names[0]
            return dict(Counter((row[name],) for row in self._rows))
        return dict(Counter(map(itemgetter(*names), self._rows)))

    def value_counts(self, name: str) -> dict[object, int]:
        """Count rows per value of a single column."""
        self._schema.column(name)
        return dict(Counter(map(itemgetter(name), self._rows)))

    # ------------------------------------------------------------------ copies
    def copy(self) -> "Table":
        """Deep copy of rows (schema objects are immutable and shared)."""
        return Table(self._schema, (dict(row) for row in self._rows))

    def lazy_copy(self) -> "Table":
        """Copy-on-write copy: rows are shared until one of them is mutated.

        Both this table and the copy mark every current row as shared, so a
        mutation through either table's API copies the affected row first.
        Orders of magnitude cheaper than :meth:`copy` for the attack and
        embedding pipelines, which touch a small fraction of the rows.
        """
        twin = Table(self._schema)
        twin._rows = list(self._rows)
        twin._owned = [False] * len(self._rows)
        self._owned = [False] * len(self._rows)
        return twin

    def with_schema(self, schema: TableSchema) -> "Table":
        """Return a copy re-validated against a (compatible) new schema."""
        return Table(schema, (dict(row) for row in self._rows))

    @classmethod
    def from_validated_rows(cls, schema: TableSchema, rows: Iterable[Row]) -> "Table":
        """A table over already-validated row dicts, shared rather than copied.

        For internal merges (e.g. concatenating shard results whose rows came
        out of validated tables): skips per-row validation and dict copies.
        The rows are marked shared, so any mutation through this table's API
        copies first — the source tables are never written through.
        """
        table = cls(schema)
        table._rows = list(rows)
        table._owned = [False] * len(table._rows)
        return table

    def slice_view(self, start: int, stop: int) -> "Table":
        """A table over rows ``[start, stop)`` sharing this table's row dicts.

        The view is what the shard-parallel executor hands each worker: O(1)
        per row, no dict copies.  Mutations through the view's own API
        (:meth:`mutable_row` etc.) copy the affected row first, so the parent
        table is never written through a view; direct mutation of the parent's
        rows, however, is visible through existing views — shard first, then
        treat the parent as frozen for the duration.
        """
        view = Table(self._schema)
        view._rows = self._rows[start:stop]
        view._owned = [False] * len(view._rows)
        return view

    # --------------------------------------------------------------------- IO
    def to_csv(self, path: str) -> None:
        """Write the table to *path* as CSV with a header row."""
        write_csv_rows(path, self._schema, self.rows)

    @classmethod
    def from_csv(cls, path: str, schema: TableSchema) -> "Table":
        """Read a CSV written by :meth:`to_csv`, coercing cells by column type."""
        return cls(schema, iter_csv_rows(path, schema))


def read_csv_chunk(schema: TableSchema, header: str, lines: Iterable[str]) -> Table:
    """One raw CSV chunk (header line + data lines) through ``DictReader``."""
    table = Table(schema)
    for raw in csv.DictReader(itertools.chain([header], lines)):
        table.insert(parse_row(raw, schema))
    return table


# ------------------------------------------------------------------ binning
def rewrite_rows(
    rows: Iterable[Row],
    schema,
    encryptor: FieldEncryptor,
    ultimate: MultiColumnGeneralization,
):
    """``Binning(tbl, ultigen)`` row by row: encrypt + generalise, streamed.

    Yields new row dicts; the input rows are never mutated.
    """
    identifying = [column.name for column in schema.identifying_columns]
    for row in rows:
        new_row = dict(row)
        for column in identifying:
            new_row[column] = encryptor.encrypt(row[column])
        for column, generalization in ultimate.items():
            new_row[column] = generalization.generalize(row[column])
        yield new_row


def rewrite_table(
    table: Iterable[Row],
    schema,
    encryptor: FieldEncryptor,
    ultimate: MultiColumnGeneralization,
) -> Table:
    """The row-store branch of ``rewrite_table``: :func:`rewrite_rows` into a row store."""
    rewritten = Table(schema)
    for new_row in rewrite_rows(table, schema, encryptor, ultimate):
        rewritten.insert(new_row)
    return rewritten


class RowBinnedTable(BinnedTable):
    """A :class:`BinnedTable` over a row store, for running the shipped embed on it.

    Its identifier projection is the row store's ``itemgetter`` path, and its
    copies stay row-store binned tables, so ``HierarchicalWatermarker.embed``
    and the attack simulators operate on row dicts with row-level
    copy-on-write.
    """

    def ident_values(self) -> list[object]:
        return ident_values(self)

    def _rewrap(self, binned: BinnedTable) -> "RowBinnedTable":
        return RowBinnedTable(**{f.name: getattr(binned, f.name) for f in fields(binned)})

    def lazy_copy(self) -> "RowBinnedTable":
        return self._rewrap(BinnedTable.lazy_copy(self))

    def copy(self) -> "RowBinnedTable":
        return self._rewrap(BinnedTable.copy(self))

    def slice(self, start: int, stop: int) -> "RowBinnedTable":
        return self._rewrap(BinnedTable.slice(self, start, stop))


def ident_values(binned: BinnedTable) -> list[object]:
    """``BinnedTable.ident_values`` over row dicts (the ``itemgetter`` path)."""
    if not binned.identifying_columns:
        return [binned.ident_value(row) for row in binned.table]
    getter = itemgetter(*binned.identifying_columns)
    return list(map(getter, binned.table.rows))


# ---------------------------------------------------------------- detection
def collect_votes(
    watermarker: HierarchicalWatermarker, binned: BinnedTable, mark_length: int
) -> DetectionVotes:
    """``HierarchicalWatermarker.collect_votes`` reading cells from row dicts."""
    if mark_length < 1:
        raise ValueError("mark_length must be at least 1")
    columns = watermarker._resolve_columns(binned)
    frontiers = watermarker._frontiers(binned, columns)
    wmd_length = mark_length * watermarker.copies
    collected = DetectionVotes(wmd_length=wmd_length)
    votes = collected.votes

    tuples_selected = 0
    cells_read = 0
    votes_cast = 0

    table = binned.table
    idents = ident_values(binned)
    for index, coords in enumerate(
        watermarker._engine.tuple_coordinates(idents, columns, wmd_length)
    ):
        if coords is None:
            continue
        tuples_selected += 1
        row = table[index]
        for column in columns:
            front = frontiers[column]
            cell = row[column]
            node = front.resolve_cell(cell)
            if node is None:
                continue
            bits, weights = front.read_levels(node)
            if not bits:
                continue
            cells_read += 1
            position = coords.position(column)
            # Ties among levels are broken in favour of the highest level
            # read (the copy "from a higher level is more reliable",
            # Section 5.3); bits are collected bottom-up, so that is the
            # last entry.
            tuple_vote = majority_vote(
                bits,
                weights=weights if watermarker._level_weighting else None,
                tie_value=bits[-1],
            )
            votes.setdefault(position, []).append(tuple_vote)
            votes_cast += len(bits)

    collected.tuples_selected = tuples_selected
    collected.cells_read = cells_read
    collected.votes_cast = votes_cast
    return collected


def detect(
    watermarker: HierarchicalWatermarker, binned: BinnedTable, mark_length: int
) -> DetectionReport:
    """``HierarchicalWatermarker.detect`` with :func:`collect_votes` as its vote loop."""
    return watermarker.finalize_votes(collect_votes(watermarker, binned, mark_length), mark_length)
