"""The CSV text forms of cells, shared by the table class, the CLI and the service.

The protection pipeline round-trips tables through CSV at two points: the
owner exports the outsourced table (``Table.to_csv``) and later re-ingests a
suspect copy for detection.  Both directions must agree on every textual form
a cell can take:

* numeric cells — plain integers, decimals, scientific notation (``1e5``),
  negatives and the IEEE specials (``nan``, ``inf``),
* generalized numeric cells — half-open :class:`~repro.dht.node.Interval`
  literals such as ``[25,30)`` or ``[25.0, 30.0)`` written by binning.

:func:`coerce_numeric_cell` is the read half (the reader itself,
:class:`~repro.relational.table.CsvParsePlan`, parses straight into column
buffers); :func:`write_table_rows` and :func:`render_csv_rows` are the emit
half, the one CSV dialect every writer uses.

This module deliberately imports only the schema and the interval type — no
``Table`` — so ``table.py`` can use it without an import cycle.
"""

from __future__ import annotations

import csv
import io
from typing import TYPE_CHECKING, TextIO

from repro.dht.node import Interval
from repro.relational.schema import TableSchema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.table import Table

__all__ = [
    "coerce_numeric_cell",
    "write_table_rows",
    "render_csv_rows",
]


def coerce_numeric_cell(text: str) -> object:
    """Parse a CSV cell of a numeric column: interval, int, then float.

    Generalized numeric cells are serialised as ``[lower,upper)`` interval
    literals; raw cells as scalars.  ``int`` is tried before ``float`` so that
    identifiers and counts keep their exact type through a round trip.
    """
    stripped = text.strip()
    if stripped.startswith("["):
        return Interval.from_string(stripped)
    try:
        return int(stripped)
    except ValueError:
        return float(stripped)


def write_table_rows(handle: TextIO, schema: TableSchema, table: "Table") -> None:
    """Write *table*'s rows (no header) to *handle* in the emit dialect.

    ``csv.writer`` defaults: ``\\r\\n`` terminators, minimal quoting, and
    ``str()`` cell coercion, which for :class:`Interval` values produces
    exactly the literal :func:`coerce_numeric_cell` parses back — the
    round-trip contract the detection path relies on.
    """
    names = schema.column_names
    columns = table.column_sequences(names)
    csv.writer(handle).writerows(zip(*(columns[name] for name in names)))


def render_csv_rows(schema: TableSchema, table: "Table") -> str:
    """*table*'s rows rendered exactly as :func:`write_table_rows` emits them.

    The source of the emit dialect for code that serialises away from the
    output file: protect pool workers render their chunk with this, and the
    streaming writer splices the text verbatim.
    """
    buffer = io.StringIO()
    write_table_rows(buffer, schema, table)
    return buffer.getvalue()
