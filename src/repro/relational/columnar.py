"""A second name for :class:`repro.relational.table.Table`.

The column store is the only table.  The benchmark harness under
``perfbench/`` still imports it under this name; the alias goes away when
that harness next changes.
"""

from repro.relational.table import Table as ColumnarTable  # noqa: F401
