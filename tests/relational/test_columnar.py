"""The column store against the row-store reference, bit for bit.

:class:`Table` stores cells by column; ``tests/oracles/row_store.py`` keeps
the row-dict table, the ``DictReader`` / ``DictWriter`` CSV path, the
row-wise binning rewrite and the row-dict vote loop it replaced.  The two
must agree at every layer — same Table API semantics, same CoW isolation,
same CSV parse and emit bytes, and identical protect / detect / attack
results — mirroring the golden equivalence pattern of
``tests/watermarking/test_batch_equivalence.py``.
"""

from __future__ import annotations

import pickle

import pytest

from oracles import row_store

from repro.attacks.addition import SubsetAdditionAttack
from repro.attacks.alteration import SubsetAlterationAttack
from repro.attacks.deletion import DeletionMode, SubsetDeletionAttack
from repro.attacks.generalization_attack import GeneralizationAttack
from repro.binning.binner import BinnedTable, rewrite_table
from repro.crypto.cipher import FieldEncryptor
from repro.relational.schema import Column, ColumnKind, ColumnType, TableSchema
from repro.relational.table import Table, TypedColumn
from repro.service.executor import ShardExecutor
from repro.service.runners import (
    ProtectPlan,
    WatermarkerSpec,
    collect_raw_chunk,
    protect_raw_chunk,
)
from repro.service.streaming import iter_tables, render_csv_rows
from repro.service.wire import table_to_csv_lines
from repro.watermarking.hierarchical import HierarchicalWatermarker
from repro.watermarking.keys import WatermarkKey
from repro.watermarking.mark import Mark, random_mark

MARK = random_mark(20, seed="columnar-equivalence")
KEY = WatermarkKey.from_secret("columnar-equivalence-secret", eta=10)
ENCRYPTION_KEY = "test-encryption-key"


# --------------------------------------------------------------------- helpers
def _detection_equal(left, right):
    assert left.mark.bits == right.mark.bits
    assert left.wmd_bits == right.wmd_bits
    assert left.positions_with_votes == right.positions_with_votes
    assert left.tuples_selected == right.tuples_selected
    assert left.cells_read == right.cells_read
    assert left.votes_cast == right.votes_cast


def _votes_equal(left, right):
    assert left.wmd_length == right.wmd_length
    assert left.votes == right.votes
    assert left.tuples_selected == right.tuples_selected
    assert left.cells_read == right.cells_read
    assert left.votes_cast == right.votes_cast


def _embedding_equal(left, right):
    assert left.watermarked.table == right.watermarked.table
    assert left.tuples_selected == right.tuples_selected
    assert left.cells_embedded == right.cells_embedded
    assert left.cells_changed == right.cells_changed
    assert left.cells_skipped_no_bandwidth == right.cells_skipped_no_bandwidth


def _binned_metadata(binned: BinnedTable) -> dict:
    return {
        "trees": binned.trees,
        "quasi_columns": binned.quasi_columns,
        "ultimate_nodes": dict(binned.ultimate_nodes),
        "maximal_nodes": dict(binned.maximal_nodes),
        "minimal_nodes": dict(binned.minimal_nodes),
        "k": binned.k,
    }


# -------------------------------------------------------------------- fixtures
@pytest.fixture(scope="module")
def binned_rows(binned_small, medium_table):
    """``binned_small``'s twin: the same frontiers, rewritten row by row into a row store."""
    binned = binned_small.binned
    table = row_store.rewrite_table(
        row_store.Table(medium_table.schema, medium_table),
        medium_table.schema,
        FieldEncryptor(ENCRYPTION_KEY),
        binned.ultimate_generalizations(),
    )
    return row_store.RowBinnedTable(
        table=table, identifying_columns=binned.identifying_columns, **_binned_metadata(binned)
    )


@pytest.fixture(scope="module")
def watermarkers():
    return (
        HierarchicalWatermarker(KEY, copies=3),
        HierarchicalWatermarker(KEY, copies=3),
    )


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
def rows():
    return [
        {"id": f"p{i}", "ward": "Cardiology" if i % 2 else "Trauma", "age": 20 + i}
        for i in range(10)
    ]


@pytest.fixture()
def pair(schema, rows):
    return row_store.Table(schema, rows), Table(schema, rows)


# ----------------------------------------------------------------- typed store
class TestTypedColumn:
    def test_int_column_uses_int64_array(self):
        column = TypedColumn.from_values([1, 2, 3])
        assert column.kind == "q"
        assert column.tolist() == [1, 2, 3]
        assert all(type(value) is int for value in column.tolist())

    def test_float_column_uses_float64_array(self):
        column = TypedColumn.from_values([1.5, 2.0])
        assert column.kind == "d"
        assert all(type(value) is float for value in column.tolist())

    def test_mixed_types_spill_to_object_list(self):
        column = TypedColumn()
        column.append(1)
        column.append(2.5)
        assert column.kind == "o"
        assert type(column[0]) is int and type(column[1]) is float

    def test_huge_int_spills_instead_of_overflowing(self):
        column = TypedColumn.from_values([1, 1 << 70])
        assert column.kind == "o"
        assert column[1] == 1 << 70
        column = TypedColumn()
        column.append(1)
        column.append(1 << 70)
        assert column.kind == "o" and column[1] == 1 << 70

    def test_bool_is_not_stored_as_int(self):
        # array('q') would coerce True to 1; the column must keep the bool.
        column = TypedColumn.from_values([True, False])
        assert column.kind == "o"
        assert column[0] is True

    def test_setitem_spills_on_type_change(self):
        column = TypedColumn.from_values([1, 2, 3])
        column[1] = "two"
        assert column.kind == "o"
        assert column.tolist() == [1, "two", 3]

    def test_strings_stay_in_object_list(self):
        column = TypedColumn.from_values(["a", "b"])
        assert column.kind == "o"


# ------------------------------------------------------------------ API parity
class TestTableApiParity:
    def test_equality_both_directions(self, pair):
        row_table, col_table = pair
        assert row_table == col_table
        assert col_table == row_table

    def test_row_views_compare_like_dicts(self, pair):
        row_table, col_table = pair
        assert col_table[0] == row_table[0]
        assert row_table[0] == col_table[0]
        assert dict(col_table[0].items()) == row_table[0]
        assert col_table[-1] == row_table[len(row_table) - 1]

    def test_insert_validation_matches(self, pair):
        _, col_table = pair
        with pytest.raises(ValueError):
            col_table.insert({"id": "x", "ward": "Trauma"})  # missing column
        with pytest.raises(ValueError):
            col_table.insert({"id": "x", "ward": "Trauma", "age": 1, "extra": 2})

    def test_queries_match(self, pair):
        row_table, col_table = pair
        assert col_table.column_values("age") == row_table.column_values("age")
        assert col_table.distinct_values("ward") == row_table.distinct_values("ward")
        assert col_table.group_by_count(["ward"]) == row_table.group_by_count(["ward"])
        assert col_table.group_by_count(["ward", "age"]) == row_table.group_by_count(
            ["ward", "age"]
        )
        assert col_table.value_counts("ward") == row_table.value_counts("ward")
        with pytest.raises(KeyError):
            col_table.column_values("nope")
        with pytest.raises(KeyError):
            col_table.group_by_count(["ward", "nope"])

    def test_mutations_match(self, pair):
        row_table, col_table = pair
        predicate = lambda row: row["ward"] == "Trauma"
        updater = lambda row: row.update(age=0)
        assert col_table.update_where(predicate, updater) == row_table.update_where(
            predicate, updater
        )
        assert col_table == row_table
        assert col_table.delete_indices([0, 3]) == row_table.delete_indices([0, 3])
        assert col_table.delete_where(predicate) == row_table.delete_where(predicate)
        assert col_table == row_table
        with pytest.raises(IndexError):
            col_table.delete_indices([999])

    def test_select_matches_and_isolates(self, pair):
        row_table, col_table = pair
        row_selected = row_table.select(lambda row: row["age"] > 24)
        col_selected = col_table.select(lambda row: row["age"] > 24)
        assert row_selected == col_selected
        col_selected.mutable_row(0)["age"] = -1
        assert all(row["age"] != -1 for row in col_table)

    def test_set_cells_matches(self, pair):
        row_table, col_table = pair
        row_table.set_cells("age", [1, 4], [100, 200])
        col_table.set_cells("age", [1, 4], [100, 200])
        assert row_table == col_table

    def test_copy_and_with_schema(self, pair, schema):
        row_table, col_table = pair
        assert col_table.copy() == row_table.copy()
        assert col_table.with_schema(schema) == row_table.with_schema(schema)

    def test_pickle_roundtrip(self, pair):
        _, col_table = pair
        assert pickle.loads(pickle.dumps(col_table)) == col_table


# ------------------------------------------------------------------------- CoW
class TestColumnarCoW:
    def test_lazy_copy_isolates_both_directions(self, pair):
        _, table = pair
        twin = table.lazy_copy()
        twin.mutable_row(3)["ward"] = "Oncology"
        assert table[3]["ward"] != "Oncology" and twin[3]["ward"] == "Oncology"
        table.mutable_row(0)["age"] = 99
        assert twin[0]["age"] == 20 and table[0]["age"] == 99

    def test_chained_lazy_copies(self, pair):
        _, table = pair
        first = table.lazy_copy()
        second = first.lazy_copy()
        second.mutable_row(0)["ward"] = "Oncology"
        assert first[0]["ward"] != "Oncology"
        assert table[0]["ward"] != "Oncology"

    def test_update_where_respects_cow(self, pair):
        _, table = pair
        twin = table.lazy_copy()
        touched = twin.update_where(
            lambda row: row["ward"] == "Trauma", lambda row: row.update(age=0)
        )
        assert touched == 5
        assert all(row["age"] == 0 for row in twin if row["ward"] == "Trauma")
        assert all(row["age"] != 0 for row in table)

    def test_deletion_on_the_copy_keeps_the_source(self, pair):
        _, table = pair
        twin = table.lazy_copy()
        twin.delete_indices([0, 1, 2])
        assert len(twin) == 7 and len(table) == 10
        twin.delete_where(lambda row: row["ward"] == "Trauma")
        assert len(table) == 10

    def test_insert_after_lazy_copy_is_private(self, pair):
        _, table = pair
        twin = table.lazy_copy()
        twin.insert({"id": "new", "ward": "Trauma", "age": 50})
        assert len(twin) == 11 and len(table) == 10

    def test_slice_view_isolates(self, pair):
        _, table = pair
        view = table.slice_view(2, 5)
        assert len(view) == 3 and view[0] == table[2]
        view.mutable_row(0)["age"] = -1
        assert table[2]["age"] != -1

    def test_mutable_row_on_owned_table_writes_in_place(self, pair):
        _, table = pair
        table.mutable_row(2)["age"] = 77
        assert table[2]["age"] == 77


# ------------------------------------------------------------------------- CSV
class TestCsvEquivalence:
    def _roundtrip(self, text: str, schema: TableSchema, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(text)
        return row_store.Table.from_csv(str(path), schema), Table.from_csv(str(path), schema)

    def test_roundtrip_matches_row_store(self, pair, tmp_path):
        row_table, col_table = pair
        path = tmp_path / "roundtrip.csv"
        row_table.to_csv(str(path))
        row_back = row_store.Table.from_csv(str(path), row_table.schema)
        col_back = Table.from_csv(str(path), row_table.schema)
        assert row_back == col_back == row_table
        # Exact cell types survive: ints stay int through the typed column.
        assert all(type(value) is int for value in col_back.column_values("age"))
        # Both writers emit the same bytes.
        col_path = tmp_path / "columnar.csv"
        col_table.to_csv(str(col_path))
        assert col_path.read_bytes() == path.read_bytes()

    def test_numeric_coercion_matches(self, schema, tmp_path):
        text = 'id,ward,age\na,T,1e5\nb,T,-2.0\nc,T,37\nd,T,"[25,30)"\n'
        row_table, col_table = self._roundtrip(text, schema, tmp_path)
        assert row_table == col_table
        assert type(col_table[2]["age"]) is int

    def test_duplicate_header_last_wins(self, schema, tmp_path):
        text = "id,ward,age,ward\na,IGNORED,30,Trauma\n"
        row_table, col_table = self._roundtrip(text, schema, tmp_path)
        assert row_table == col_table
        assert col_table[0]["ward"] == "Trauma"

    def test_short_rows_pad_with_restval(self, schema, tmp_path):
        text = "id,ward,age\na,Trauma,30\nb\n"
        with pytest.raises(ValueError):
            # The padded cell "None" fails numeric coercion — on both paths.
            self._roundtrip(text, schema, tmp_path)
        text = "id,age,ward\na,30,Trauma\nb,31\n"
        row_table, col_table = self._roundtrip(text, schema, tmp_path)
        assert row_table == col_table
        assert col_table[1]["ward"] == "None"

    def test_extra_cells_and_columns_ignored(self, schema, tmp_path):
        text = "id,ward,age,junk\na,Trauma,30,zzz\nb,Trauma,31,zzz,overflow\n"
        row_table, col_table = self._roundtrip(text, schema, tmp_path)
        assert row_table == col_table and len(col_table) == 2

    def test_blank_lines_skipped(self, schema, tmp_path):
        text = "id,ward,age\na,Trauma,30\n\nb,Trauma,31\n"
        row_table, col_table = self._roundtrip(text, schema, tmp_path)
        assert row_table == col_table and len(col_table) == 2

    def test_missing_schema_column_raises(self, schema, tmp_path):
        text = "id,ward\na,Trauma\n"
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="missing column 'age'"):
            row_store.Table.from_csv(str(path), schema)
        with pytest.raises(ValueError, match="missing column 'age'"):
            Table.from_csv(str(path), schema)

    def test_quoted_newlines_in_cells(self, schema, tmp_path):
        text = 'id,ward,age\na,"Trauma\nUnit",30\n'
        row_table, col_table = self._roundtrip(text, schema, tmp_path)
        assert row_table == col_table
        assert col_table[0]["ward"] == "Trauma\nUnit"

    def test_chunk_parse_matches_dictreader(self, pair):
        row_table, col_table = pair
        header, lines = table_to_csv_lines(col_table)
        chunk = Table.from_csv_chunk(col_table.schema, header, lines)
        reference = row_store.read_csv_chunk(col_table.schema, header, lines)
        assert chunk == reference == row_table

    def test_iter_tables_yields_columnar_chunks(self, pair, tmp_path):
        row_table, _ = pair
        path = tmp_path / "stream.csv"
        row_table.to_csv(str(path))
        chunks = list(iter_tables(str(path), row_table.schema, chunk_size=4))
        assert [len(chunk) for chunk in chunks] == [4, 4, 2]
        assert all(isinstance(chunk, Table) for chunk in chunks)
        merged = [dict(row.items()) for chunk in chunks for row in chunk]
        assert merged == row_table.rows

    def test_render_csv_rows_byte_identical(self, pair):
        row_table, col_table = pair
        assert row_store.render_csv_rows(row_table.schema, row_table) == render_csv_rows(
            col_table.schema, col_table
        )

    def test_table_to_csv_lines_byte_identical(self, pair):
        row_table, col_table = pair
        header, lines = table_to_csv_lines(col_table)
        assert header == ",".join(row_table.schema.column_names) + "\r\n"
        assert lines == [
            row_store.render_csv_rows(row_table.schema, [row]) for row in row_table
        ]


# ------------------------------------------------------- golden protect/detect
class TestGoldenSubstrateEquivalence:
    """The golden pattern, column store against the row-store reference."""

    def test_binning_is_bit_identical(self, binned_small, binned_rows):
        assert isinstance(binned_small.binned.table, Table)
        assert binned_small.binned.table == binned_rows.table

    def test_ident_values_equal(self, binned_small, binned_rows):
        assert binned_small.binned.ident_values() == row_store.ident_values(binned_rows)

    def test_embed_is_bit_identical(self, binned_small, binned_rows, watermarkers):
        row_wm, col_wm = watermarkers
        _embedding_equal(
            row_wm.embed(binned_rows, MARK),
            col_wm.embed(binned_small.binned, MARK),
        )

    def test_embedding_leaves_the_source_untouched(self, binned_small, watermarkers):
        _, col_wm = watermarkers
        before = binned_small.binned.table.copy()
        embedding = col_wm.embed(binned_small.binned, MARK)
        assert binned_small.binned.table == before
        embedding.watermarked.table.mutable_row(0)["symptom"] = "poisoned"
        assert binned_small.binned.table == before

    def test_clean_detection_is_bit_identical(self, binned_small, binned_rows, watermarkers):
        row_wm, col_wm = watermarkers
        row_marked = row_wm.embed(binned_rows, MARK).watermarked
        col_marked = col_wm.embed(binned_small.binned, MARK).watermarked
        _detection_equal(
            row_store.detect(row_wm, row_marked, len(MARK)),
            col_wm.detect(col_marked, len(MARK)),
        )

    @pytest.mark.parametrize(
        "attack",
        [
            SubsetAlterationAttack(0.4, seed=5),
            SubsetAdditionAttack(0.4, seed=5),
            SubsetDeletionAttack(0.4, seed=5, mode=DeletionMode.RANDOM),
            SubsetDeletionAttack(0.4, seed=5, mode=DeletionMode.IDENT_RANGES),
            GeneralizationAttack(levels=1),
        ],
        ids=["alteration", "addition", "deletion-random", "deletion-ranges", "generalization"],
    )
    def test_attacks_and_detection_after_attack(
        self, binned_small, binned_rows, watermarkers, attack
    ):
        row_wm, col_wm = watermarkers
        row_marked = row_wm.embed(binned_rows, MARK).watermarked
        col_marked = col_wm.embed(binned_small.binned, MARK).watermarked
        row_result = attack.run(row_marked)
        col_result = attack.run(col_marked)
        assert row_result.rows_touched == col_result.rows_touched
        assert row_result.details == col_result.details
        assert row_result.attacked.table == col_result.attacked.table
        _detection_equal(
            row_store.detect(row_wm, row_result.attacked, len(MARK)),
            col_wm.detect(col_result.attacked, len(MARK)),
        )

    def test_runner_detects_are_bit_identical_across_substrates(self, binned_small, binned_rows, watermarkers):
        """Thread and process runners agree with the row-store serial detect."""
        row_wm, col_wm = watermarkers
        row_marked = row_wm.embed(binned_rows, MARK).watermarked
        col_marked = col_wm.embed(binned_small.binned, MARK).watermarked
        serial = row_store.detect(row_wm, row_marked, len(MARK))
        for runner in ("thread", "process"):
            executor = ShardExecutor(2, runner=runner)
            _detection_equal(serial, executor.detect(col_wm, col_marked, len(MARK), shards=3))


# ------------------------------------------------------------ runner raw chunks
class TestRawChunkEquivalence:
    """Worker-side chunk tasks against the row-store reference pipeline."""

    def test_collect_raw_chunk_votes_match_row_store(self, binned_small, watermarkers):
        row_wm, _ = watermarkers
        marked = row_wm.embed(binned_small.binned, MARK).watermarked
        header, lines = table_to_csv_lines(marked.table)
        spec = WatermarkerSpec.of(row_wm)
        metadata = {"identifying_columns": marked.identifying_columns, **_binned_metadata(marked)}
        count, votes = collect_raw_chunk(
            spec, marked.table.schema, metadata, header, lines, len(MARK)
        )
        assert count == len(marked.table)
        reference = BinnedTable(
            table=row_store.read_csv_chunk(marked.table.schema, header, lines), **metadata
        )
        _votes_equal(votes, row_store.collect_votes(row_wm, reference, len(MARK)))

    def test_protect_raw_chunk_bytes_match_row_store(
        self, binned_small, medium_table, watermarkers
    ):
        row_wm, _ = watermarkers
        binned = binned_small.binned
        header, lines = table_to_csv_lines(medium_table)
        spec = WatermarkerSpec.of(row_wm)
        metadata = _binned_metadata(binned)
        plan = ProtectPlan(
            spec=spec,
            schema=medium_table.schema,
            metadata=metadata,
            identifying_columns=binned.identifying_columns,
            encryption_key=ENCRYPTION_KEY,
            mark_bits=str(MARK),
        )
        chunk = protect_raw_chunk(plan, header, lines)

        # Reference: the row-store pipeline over the same records.
        encryptor = FieldEncryptor(ENCRYPTION_KEY)
        ultimate = binned.ultimate_generalizations()
        parsed = row_store.read_csv_chunk(medium_table.schema, header, lines)
        reference_table = row_store.rewrite_table(parsed, medium_table.schema, encryptor, ultimate)
        reference_binned = row_store.RowBinnedTable(
            table=reference_table,
            identifying_columns=binned.identifying_columns,
            **metadata,
        )
        embedding = HierarchicalWatermarker(KEY, copies=3).embed(
            reference_binned, Mark.from_string(str(MARK))
        )
        assert chunk.rows == len(reference_table)
        assert chunk.tuples_selected == embedding.tuples_selected
        assert chunk.cells_changed == embedding.cells_changed
        assert chunk.text == row_store.render_csv_rows(
            medium_table.schema, embedding.watermarked.table
        )


# ------------------------------------------------------------------ encryption
class TestEncryptManyEquivalence:
    def test_bit_identical_to_scalar(self):
        encryptor = FieldEncryptor("columnar-cipher-key")
        values = ["alpha", 1234567890, "alpha", "", "a-much-longer-identifier-" * 4, 3.5]
        assert encryptor.encrypt_many(values) == [encryptor.encrypt(v) for v in values]

    def test_tokens_decrypt_back(self):
        encryptor = FieldEncryptor("columnar-cipher-key")
        values = ["alpha", "beta", "alpha"]
        tokens = encryptor.encrypt_many(values)
        assert [encryptor.decrypt(token) for token in tokens] == values

    def test_rewrite_table_row_vs_columnar(self, binned_small, medium_table):
        binned = binned_small.binned
        encryptor = FieldEncryptor(ENCRYPTION_KEY)
        ultimate = binned.ultimate_generalizations()
        row_rewritten = row_store.rewrite_table(
            row_store.Table(medium_table.schema, medium_table),
            medium_table.schema,
            encryptor,
            ultimate,
        )
        col_rewritten = rewrite_table(medium_table, medium_table.schema, encryptor, ultimate)
        assert isinstance(row_rewritten, row_store.Table)
        assert isinstance(col_rewritten, Table)
        assert row_rewritten == col_rewritten == binned.table
