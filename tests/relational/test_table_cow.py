"""Copy-on-write table semantics, Counter-based aggregation and CSV coercion."""

from __future__ import annotations

import math

import pytest

from repro.relational.schema import Column, ColumnKind, ColumnType, TableSchema
from repro.relational.table import Table


@pytest.fixture()
def schema():
    return TableSchema(
        (
            Column("id", ColumnKind.IDENTIFYING, ColumnType.CATEGORICAL),
            Column("ward", ColumnKind.QUASI_IDENTIFYING, ColumnType.CATEGORICAL),
            Column("age", ColumnKind.QUASI_IDENTIFYING, ColumnType.NUMERIC),
        )
    )


@pytest.fixture()
def table(schema):
    return Table(
        schema,
        [
            {"id": f"p{i}", "ward": "Cardiology" if i % 2 else "Trauma", "age": 20 + i}
            for i in range(10)
        ],
    )


class TestLazyCopy:
    def test_mutable_row_isolates_the_copy(self, table):
        twin = table.lazy_copy()
        twin.mutable_row(3)["ward"] = "Oncology"
        assert twin[3]["ward"] == "Oncology"
        assert table[3]["ward"] != "Oncology"
        assert table[4] == twin[4]

    def test_mutation_through_the_source_is_isolated_too(self, table):
        twin = table.lazy_copy()
        table.mutable_row(0)["age"] = 99
        assert table[0]["age"] == 99
        assert twin[0]["age"] == 20

    def test_update_where_respects_cow(self, table):
        twin = table.lazy_copy()
        touched = twin.update_where(lambda row: row["ward"] == "Trauma", lambda row: row.update(age=0))
        assert touched == 5
        assert all(row["age"] == 0 for row in twin if row["ward"] == "Trauma")
        assert all(row["age"] != 0 for row in table)

    def test_deletion_on_the_copy_keeps_the_source(self, table):
        twin = table.lazy_copy()
        twin.delete_indices([0, 1, 2])
        assert len(twin) == 7 and len(table) == 10
        twin.delete_where(lambda row: row["ward"] == "Trauma")
        assert len(table) == 10
        # The copy stays isolated after its rows shift.
        twin.mutable_row(0)["ward"] = "Neurology"
        assert all(row["ward"] != "Neurology" for row in table)

    def test_insert_after_lazy_copy_is_private(self, table, schema):
        twin = table.lazy_copy()
        twin.insert({"id": "new", "ward": "Trauma", "age": 50})
        assert len(twin) == 11 and len(table) == 10
        twin.mutable_row(10)["age"] = 51  # private row: no copy needed
        assert twin[10]["age"] == 51

    def test_chained_lazy_copies(self, table):
        first = table.lazy_copy()
        second = first.lazy_copy()
        second.mutable_row(0)["ward"] = "Oncology"
        assert first[0]["ward"] != "Oncology"
        assert table[0]["ward"] != "Oncology"

    def test_deep_copy_still_isolates_everything(self, table):
        deep = table.copy()
        deep[0]["ward"] = "Oncology"
        assert table[0]["ward"] != "Oncology"


class TestCounterAggregation:
    def test_value_counts(self, table):
        assert table.value_counts("ward") == {"Cardiology": 5, "Trauma": 5}
        with pytest.raises(KeyError):
            table.value_counts("nope")

    def test_group_by_count_single_column_keys_are_tuples(self, table):
        counts = table.group_by_count(["ward"])
        assert counts == {("Cardiology",): 5, ("Trauma",): 5}

    def test_group_by_count_multi_column(self, table):
        counts = table.group_by_count(["ward", "age"])
        assert sum(counts.values()) == len(table)
        assert counts[("Trauma", 20)] == 1
        with pytest.raises(KeyError):
            table.group_by_count(["ward", "nope"])


class TestFromCsvCoercion:
    def test_scientific_negative_and_nan(self, schema, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(
            "id,ward,age\n"
            "a,Trauma,1e5\n"
            "b,Trauma,-2.0\n"
            "c,Trauma,nan\n"
            "d,Trauma,37\n"
            "e,Trauma,-12\n"
        )
        table = Table.from_csv(str(path), schema)
        ages = table.column_values("age")
        assert ages[0] == pytest.approx(100000.0)
        assert ages[1] == pytest.approx(-2.0)
        assert math.isnan(ages[2])
        assert ages[3] == 37 and isinstance(ages[3], int)
        assert ages[4] == -12 and isinstance(ages[4], int)

    def test_round_trip(self, table, tmp_path):
        path = tmp_path / "roundtrip.csv"
        table.to_csv(str(path))
        back = Table.from_csv(str(path), table.schema)
        assert back.column_values("age") == table.column_values("age")

    def test_garbage_still_raises(self, schema, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,ward,age\na,Trauma,not-a-number\n")
        with pytest.raises(ValueError):
            Table.from_csv(str(path), schema)
