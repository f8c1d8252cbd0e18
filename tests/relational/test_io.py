"""Tests for the CSV text forms of cells (repro/relational/io.py) and the reader."""

import math

import pytest

from repro.dht.node import Interval
from repro.relational.io import coerce_numeric_cell, render_csv_rows
from repro.relational.schema import Column, ColumnKind, ColumnType, TableSchema
from repro.relational.table import Table
from repro.service.streaming import iter_rows, write_rows


@pytest.fixture()
def schema():
    return TableSchema(
        (
            Column("id", ColumnKind.IDENTIFYING, ColumnType.CATEGORICAL),
            Column("age", ColumnKind.QUASI_IDENTIFYING, ColumnType.NUMERIC),
            Column("ward", ColumnKind.QUASI_IDENTIFYING, ColumnType.CATEGORICAL),
        )
    )


class TestIntervalFromString:
    @pytest.mark.parametrize(
        "text,lower,upper",
        [
            ("[25,30)", 25.0, 30.0),
            ("[25.0,30.0)", 25.0, 30.0),
            ("[25.0, 30.0)", 25.0, 30.0),
            ("  [2.5e1,3e1)  ", 25.0, 30.0),
            ("[-10,-2.5)", -10.0, -2.5),
            ("[0,inf)", 0.0, math.inf),
        ],
    )
    def test_accepted_forms(self, text, lower, upper):
        interval = Interval.from_string(text)
        assert interval.lower == lower and interval.upper == upper

    @pytest.mark.parametrize(
        "text", ["25,30", "[25,30]", "(25,30)", "[25;30)", "[25)", "[a,b)", "[1,2,3)", ""]
    )
    def test_rejected_forms(self, text):
        with pytest.raises(ValueError):
            Interval.from_string(text)

    def test_str_round_trip(self):
        for interval in (Interval(25, 30), Interval(-2.5, 0.25), Interval(0, 150)):
            assert Interval.from_string(str(interval)) == interval


class TestCellParsing:
    def test_numeric_scalar_forms(self):
        assert coerce_numeric_cell("37") == 37 and isinstance(coerce_numeric_cell("37"), int)
        assert coerce_numeric_cell("-2.0") == pytest.approx(-2.0)
        assert coerce_numeric_cell("1e5") == pytest.approx(100000.0)
        assert math.isnan(coerce_numeric_cell("nan"))

    def test_numeric_interval_form(self):
        assert coerce_numeric_cell("[25,30)") == Interval(25.0, 30.0)

    def test_categorical_kept_verbatim(self, schema, tmp_path):
        path = tmp_path / "categorical.csv"
        path.write_text('id,age,ward\n"[25,30)",1, Cardiology \n')
        row = Table.from_csv(str(path), schema)[0]
        assert row["id"] == "[25,30)" and row["ward"] == " Cardiology "

    def test_missing_column(self, schema, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("id,age\na,1\n")
        with pytest.raises(ValueError, match="missing column"):
            Table.from_csv(str(path), schema)


class TestCsvRoundTrip:
    def test_interval_cells_round_trip(self, schema, tmp_path):
        rows = [
            {"id": "a", "age": Interval(25, 30), "ward": "Trauma"},
            {"id": "b", "age": 41, "ward": "Cardiology"},
            {"id": "c", "age": Interval(0.5, 1.25), "ward": "Oncology"},
        ]
        path = tmp_path / "mixed.csv"
        assert write_rows(str(path), schema, rows) == 3
        back = list(iter_rows(str(path), schema))
        assert back == rows
        assert render_csv_rows(schema, Table.from_csv(str(path), schema)) == (
            'a,"[25,30)",Trauma\r\nb,41,Cardiology\r\nc,"[0.5,1.25)",Oncology\r\n'
        )

    def test_table_from_csv_accepts_protected_intervals(self, schema, tmp_path):
        """The historical asymmetry: ``to_csv`` wrote intervals the reader rejected."""
        table = Table(schema)
        table.insert({"id": "a", "age": Interval(25, 30), "ward": "Trauma"})
        path = tmp_path / "protected.csv"
        table.to_csv(str(path))
        back = Table.from_csv(str(path), schema)
        assert back.rows == table.rows

    def test_iter_rows_is_lazy(self, schema, tmp_path):
        path = tmp_path / "big.csv"
        write_rows(
            str(path),
            schema,
            ({"id": str(i), "age": i % 90, "ward": "Trauma"} for i in range(100)),
        )
        iterator = iter_rows(str(path), schema)
        first = next(iterator)
        assert first["id"] == "0" and first["age"] == 0
        assert sum(1 for _ in iterator) == 99
