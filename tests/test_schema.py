from __future__ import annotations

import sqlite3

import pytest

from sqlsynth import sqlite_engine
from sqlsynth.errors import DdlSyntaxError, DuplicateObjectError, UnknownObjectError
from sqlsynth.schema import (
    CsvDirSampler,
    derive_column_prefixes,
    infer_foreign_keys,
    ingest_ddl,
    load_catalog,
    profile_columns,
    render_create_statements,
    save_catalog,
)

from tests.conftest import TPCH_DDL_PATH

# Table/column/key counts from the published TPC-H benchmark definition;
# the independent cross-check for ingesting the full DDL.
TPCH_TABLE_COLUMNS = {
    "region": 3,
    "nation": 4,
    "part": 9,
    "supplier": 7,
    "partsupp": 5,
    "customer": 8,
    "orders": 9,
    "lineitem": 16,
}
TPCH_DECLARED_FKS = 10


class TestIngest:
    def test_two_table_example(self):
        ddl = (
            "CREATE TABLE r (rk INT PRIMARY KEY); "
            "CREATE TABLE n (nk INT PRIMARY KEY, n_rk INT, "
            "FOREIGN KEY (n_rk) REFERENCES r(rk))"
        )
        catalog = ingest_ddl(ddl)
        assert [t.name for t in catalog.tables] == ["r", "n"]
        assert len(catalog.fk_edges) == 1
        fk = catalog.fk_edges[0]
        assert (fk.from_table, fk.to_table, fk.provenance) == ("n", "r", "declared")

    def test_empty_input(self):
        catalog = ingest_ddl("")
        assert catalog.tables == []
        assert catalog.fk_edges == []

    def test_tpch_matches_published_counts(self, tpch_catalog):
        assert {t.name: len(t.columns) for t in tpch_catalog.tables} == TPCH_TABLE_COLUMNS
        assert len(tpch_catalog.fk_edges) == TPCH_DECLARED_FKS
        assert all(fk.provenance == "declared" for fk in tpch_catalog.fk_edges)

    def test_tpch_composite_key_edge(self, tpch_catalog):
        composite = [fk for fk in tpch_catalog.fk_edges if len(fk.from_columns) > 1]
        assert len(composite) == 1
        assert composite[0].from_table == "lineitem"
        assert composite[0].to_table == "partsupp"

    def test_references_defaults_to_primary_key(self):
        catalog = ingest_ddl(
            "CREATE TABLE a (x INT PRIMARY KEY);"
            "CREATE TABLE b (y INT REFERENCES a)"
        )
        assert catalog.fk_edges[0].to_columns == ("x",)

    def test_duplicate_table_rejected(self):
        with pytest.raises(DuplicateObjectError):
            ingest_ddl("CREATE TABLE t (a INT); CREATE TABLE T (b INT)")

    def test_parse_error_carries_statement_index(self):
        with pytest.raises(DdlSyntaxError) as err:
            ingest_ddl("CREATE TABLE a (x INT); CREATE TABLE b (y BROKENTYPE)")
        assert err.value.statement_index == 1
        assert err.value.position > 0

    def test_fk_to_unknown_table_rejected(self):
        with pytest.raises(DdlSyntaxError):
            ingest_ddl("CREATE TABLE a (x INT, FOREIGN KEY (x) REFERENCES ghost (g))")

    def test_fk_must_reference_primary_key(self):
        with pytest.raises(DdlSyntaxError):
            ingest_ddl(
                "CREATE TABLE a (x INT PRIMARY KEY, y INT);"
                "CREATE TABLE b (z INT, FOREIGN KEY (z) REFERENCES a (y))"
            )

    def test_view_name_captured_body_skipped(self):
        catalog = ingest_ddl(
            "CREATE TABLE t (a INT);"
            "CREATE VIEW v AS SELECT a, COUNT(*) FROM t GROUP BY a;"
        )
        assert catalog.view_names == ["v"]
        assert len(catalog.tables) == 1

    def test_identifiers_fold_to_lowercase(self):
        catalog = ingest_ddl('CREATE TABLE Foo ("Bar" INT, baz VARCHAR(10))')
        table = catalog.table("FOO")
        assert table is not None
        assert table.column("BAR") is not None

    def test_type_families(self):
        catalog = ingest_ddl(
            "CREATE TABLE t (a BIGINT, b NUMERIC(10,2), c DOUBLE PRECISION, "
            "d CHAR(5), e TEXT, f DATE, g BOOLEAN)"
        )
        families = [c.sql_type for c in catalog.tables[0].columns]
        assert families == ["integer", "decimal", "float", "char", "varchar", "date", "boolean"]


class TestInference:
    def test_suffix_match_infers_edge(self):
        ddl = (
            "CREATE TABLE region (r_regionkey INT PRIMARY KEY, r_name CHAR(25));"
            "CREATE TABLE nation (n_nationkey INT PRIMARY KEY, n_regionkey INT)"
        )
        catalog = infer_foreign_keys(ingest_ddl(ddl))
        inferred = [fk for fk in catalog.fk_edges if fk.provenance == "inferred"]
        assert len(inferred) == 1
        assert (inferred[0].from_table, inferred[0].to_table) == ("nation", "region")

    def test_declared_edge_not_duplicated(self, tiny_catalog):
        before = [fk.key() for fk in tiny_catalog.fk_edges]
        after = infer_foreign_keys(tiny_catalog)
        assert [fk.key() for fk in after.fk_edges] == before

    def test_idempotent(self, tpch_catalog):
        once = infer_foreign_keys(tpch_catalog)
        twice = infer_foreign_keys(once)
        assert [fk.key() for fk in twice.fk_edges] == [fk.key() for fk in once.fk_edges]

    def test_monotone(self, tpch_catalog):
        after = infer_foreign_keys(tpch_catalog)
        assert {fk.key() for fk in tpch_catalog.fk_edges} <= {fk.key() for fk in after.fk_edges}

    def test_tpch_prefixes_derived(self, tpch_catalog):
        prefixes = derive_column_prefixes(tpch_catalog)
        assert prefixes["nation"] == "n_"
        assert prefixes["partsupp"] == "ps_"
        assert prefixes["lineitem"] == "l_"

    def test_tpch_union_edge_set(self, tpch_catalog):
        # All TPC-H links are declared, so inference (which cannot see the
        # composite partsupp key) adds nothing new.
        after = infer_foreign_keys(tpch_catalog)
        assert len(after.fk_edges) == len(tpch_catalog.fk_edges)

    def test_inference_from_bare_schema(self, tpch_bare_catalog):
        # With FOREIGN KEY clauses stripped, name matching recovers all
        # single-column links (the composite lineitem->partsupp one cannot
        # be inferred).
        assert not tpch_bare_catalog.fk_edges
        inferred = infer_foreign_keys(tpch_bare_catalog)
        pairs = {(fk.from_table, fk.to_table) for fk in inferred.fk_edges}
        assert pairs == {
            ("nation", "region"),
            ("supplier", "nation"),
            ("customer", "nation"),
            ("partsupp", "part"),
            ("partsupp", "supplier"),
            ("orders", "customer"),
            ("lineitem", "orders"),
            ("lineitem", "part"),
            ("lineitem", "supplier"),
        }

    def test_ambiguous_match_skipped_with_advisory(self):
        ddl = (
            "CREATE TABLE a (key INT PRIMARY KEY);"
            "CREATE TABLE b (key INT PRIMARY KEY);"
            "CREATE TABLE c (c_id INT PRIMARY KEY, key INT)"
        )
        catalog = infer_foreign_keys(ingest_ddl(ddl))
        inferred = [fk for fk in catalog.fk_edges if fk.provenance == "inferred"]
        assert not any(fk.from_table == "c" for fk in inferred)
        assert any("ambiguous" in note for note in catalog.advisories)


class TestProfiling:
    class ListSampler:
        def __init__(self, data):
            self.data = data

        def sample(self, table, column, limit):
            if (table, column) not in self.data:
                raise KeyError((table, column))
            return self.data[(table, column)][:limit]

    def _catalog(self):
        return ingest_ddl(
            "CREATE TABLE t (sex CHAR(1), version VARCHAR(16), amount INT, note VARCHAR(50))"
        )

    def test_enumeration_recorded(self):
        sampler = self.ListSampler({("t", "sex"): ["M", "F", "M", "F"]})
        catalog = profile_columns(self._catalog(), sampler)
        meta = catalog.table("t").column("sex").metadata
        assert meta.enumerated_values == ["F", "M"]
        assert meta.distinct_value_count == 2

    def test_version_strings_flag_label(self):
        sampler = self.ListSampler({("t", "version"): ["3.0.1", "2.7.0", "3.1.4"]})
        catalog = profile_columns(self._catalog(), sampler)
        assert catalog.table("t").column("version").metadata.is_label

    def test_mostly_version_strings_flag_label(self):
        values = ["1.2.3"] * 9 + ["oddball"]
        sampler = self.ListSampler({("t", "version"): values})
        catalog = profile_columns(self._catalog(), sampler)
        assert catalog.table("t").column("version").metadata.is_label

    def test_below_share_not_label(self):
        values = ["1.2.3"] * 8 + ["a", "b"]
        sampler = self.ListSampler({("t", "version"): values})
        catalog = profile_columns(self._catalog(), sampler)
        assert not catalog.table("t").column("version").metadata.is_label

    def test_enum_threshold_exceeded(self):
        sampler = self.ListSampler({("t", "amount"): list(range(10_000))})
        catalog = profile_columns(self._catalog(), sampler, enum_threshold=20)
        meta = catalog.table("t").column("amount").metadata
        assert meta.enumerated_values is None
        assert meta.distinct_value_count == 10_000

    def test_sample_cap_applies(self):
        sampler = self.ListSampler({("t", "amount"): list(range(10_000))})
        catalog = profile_columns(self._catalog(), sampler, sample_cap=100)
        assert catalog.table("t").column("amount").metadata.distinct_value_count == 100

    def test_numeric_value_range(self):
        sampler = self.ListSampler({("t", "amount"): ["5", "1", "9"]})
        catalog = profile_columns(self._catalog(), sampler)
        assert catalog.table("t").column("amount").metadata.value_range == ("1", "9")

    def test_non_finite_values_bound_no_range(self):
        values = ["5", "nan", "inf", "-inf", "1", "9"]
        sampler = self.ListSampler({("t", "amount"): values})
        meta = profile_columns(self._catalog(), sampler).table("t").column("amount").metadata
        assert meta.value_range == ("1", "9")
        assert meta.enumerated_values == ["-inf", "1", "5", "9", "inf", "nan"]
        sampler = self.ListSampler({("t", "amount"): ["nan", "inf"]})
        meta = profile_columns(self._catalog(), sampler).table("t").column("amount").metadata
        assert meta.value_range is None

    def test_sampler_failure_never_aborts(self):
        catalog = profile_columns(self._catalog(), self.ListSampler({}))
        assert all(
            c.metadata.distinct_value_count is None
            for c in catalog.table("t").columns
        )
        assert catalog.advisories

    def test_explicit_label_columns(self):
        sampler = self.ListSampler({})
        catalog = profile_columns(
            self._catalog(), sampler, label_columns={("t", "note")}
        )
        assert catalog.table("t").column("note").metadata.is_label

    def test_structure_untouched(self, tpch_catalog):
        profiled = profile_columns(tpch_catalog, self.ListSampler({}))
        assert [t.name for t in profiled.tables] == [t.name for t in tpch_catalog.tables]
        assert [fk.key() for fk in profiled.fk_edges] == [
            fk.key() for fk in tpch_catalog.fk_edges
        ]

    def test_csv_dir_sampler(self, tmp_path, tiny_catalog):
        (tmp_path / "region.csv").write_text(
            "r_regionkey,r_name\n0,AFRICA\n1,AMERICA\n", encoding="utf-8"
        )
        (tmp_path / "nation.tbl").write_text(
            "0|ALGERIA|0\n1|ARGENTINA|1\n", encoding="utf-8"
        )
        sampler = CsvDirSampler(tmp_path, tiny_catalog)
        assert sampler.sample("region", "r_name", 10) == ["AFRICA", "AMERICA"]
        assert sampler.sample("nation", "n_name", 1) == ["ALGERIA"]

    def test_sampler_reads_the_file_the_engine_loads(self, tmp_path, tiny_catalog):
        """With both data files present, profiling samples the rows a SQLite
        engine loads: the .tbl file's, by position, not the CSV's by header."""
        (tmp_path / "region.csv").write_text("r_name,r_regionkey\nFROMCSV,9\n", encoding="utf-8")
        (tmp_path / "region.tbl").write_text("0|FROMTBL|\n", encoding="utf-8")
        conn = sqlite3.connect(":memory:")
        conn.execute("CREATE TABLE region (r_regionkey, r_name)")
        columns = ["r_regionkey", "r_name"]
        assert sqlite_engine.load(conn, "region", str(tmp_path), columns, 10) == 1
        loaded = conn.execute("SELECT r_regionkey, r_name FROM region").fetchall()
        assert loaded == [("0", "FROMTBL")]
        sampler = CsvDirSampler(tmp_path, tiny_catalog)
        assert sampler.sample("region", "r_name", 10) == ["FROMTBL"]
        profiled = profile_columns(tiny_catalog, sampler).require_table("region")
        assert profiled.column("r_name").metadata.enumerated_values == ["FROMTBL"]


    def test_csv_header_names_the_columns(self, tmp_path, tiny_catalog):
        """A CSV header must name the catalog's columns in order, in any
        letter case; with the columns swapped, profiling samples nothing."""
        (tmp_path / "region.csv").write_text("R_RegionKey,R_NAME\n0,AFRICA\n", encoding="utf-8")
        assert CsvDirSampler(tmp_path, tiny_catalog).sample("region", "r_name", 10) == ["AFRICA"]
        (tmp_path / "region.csv").write_text("r_name,r_regionkey\nAFRICA,0\n", encoding="utf-8")
        with pytest.raises(sqlite_engine.DataFileError, match="region.csv: header"):
            CsvDirSampler(tmp_path, tiny_catalog).sample("region", "r_name", 10)
        profiled = profile_columns(tiny_catalog, CsvDirSampler(tmp_path, tiny_catalog))
        assert profiled.require_table("region").column("r_name").metadata.enumerated_values is None
        assert any("region.csv: header" in note for note in profiled.advisories)

    def test_sampler_reads_each_table_once(self, tpch_catalog, monkeypatch):
        """Profiling the bundled sample reads each of its 8 tables' files
        once, not once per column (61 columns)."""
        from sqlsynth import schema as schema_mod

        tables = []

        def counted(data_dir, table, columns, cap):
            tables.append(table)
            return sqlite_engine.read_rows(data_dir, table, columns, cap)

        monkeypatch.setattr(schema_mod, "read_rows", counted)
        sample_dir = TPCH_DDL_PATH.parent / "tpch_sample"
        profiled = profile_columns(tpch_catalog, CsvDirSampler(sample_dir, tpch_catalog))
        assert sorted(tables) == sorted(TPCH_TABLE_COLUMNS)
        assert not profiled.advisories
        region = profiled.require_table("region").column("r_name").metadata
        assert region.enumerated_values == [
            "AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"
        ]

    def test_failing_file_gives_each_column_an_advisory(self, tmp_path, tiny_catalog):
        (tmp_path / "region.csv").write_text("r_regionkey,r_name\n0\n", encoding="utf-8")
        (tmp_path / "nation.tbl").write_text("0|ALGERIA|0\n", encoding="utf-8")
        profiled = profile_columns(tiny_catalog, CsvDirSampler(tmp_path, tiny_catalog))
        assert profiled.advisories == [
            f"sampling failed for region.{column}: region.csv: expected 2 fields, got 1"
            for column in ("r_regionkey", "r_name")
        ]
        nation = profiled.require_table("nation").column("n_name").metadata
        assert nation.enumerated_values == ["ALGERIA"]

    def test_csv_row_field_count_checked(self, tmp_path, tiny_catalog):
        (tmp_path / "region.csv").write_text("r_regionkey,r_name\n0\n", encoding="utf-8")
        sampler = CsvDirSampler(tmp_path, tiny_catalog)
        with pytest.raises(sqlite_engine.DataFileError, match="region.csv: expected 2 fields"):
            sampler.sample("region", "r_name", 10)


class TestRender:
    def test_single_table_all_columns(self, tiny_catalog):
        statements = render_create_statements(tiny_catalog, table_filter={"region"})
        assert len(statements) == 1
        assert "r_regionkey" in statements[0]
        assert "r_name" in statements[0]

    def test_column_filter_restricts(self, tpch_catalog):
        statements = render_create_statements(
            tpch_catalog,
            table_filter={"part"},
            column_filter={"part": {"p_partkey", "p_name"}},
        )
        assert "p_partkey" in statements[0]
        assert "p_retailprice" not in statements[0]

    def test_deterministic(self, tpch_catalog):
        assert render_create_statements(tpch_catalog) == render_create_statements(tpch_catalog)

    def test_unknown_filter_name(self, tiny_catalog):
        with pytest.raises(UnknownObjectError):
            render_create_statements(tiny_catalog, table_filter={"ghost"})
        with pytest.raises(UnknownObjectError):
            render_create_statements(tiny_catalog, column_filter={"region": {"ghost"}})

    def test_fk_clause_dropped_when_target_filtered(self, tiny_catalog):
        statements = render_create_statements(tiny_catalog, table_filter={"nation"})
        assert "FOREIGN KEY" not in statements[0]

    def test_reingest_fixpoint(self, tpch_catalog):
        rendered = "\n".join(render_create_statements(tpch_catalog))
        again = ingest_ddl(rendered, name=tpch_catalog.name)
        assert again == tpch_catalog

    def test_reserved_word_names_are_quoted(self):
        catalog = ingest_ddl(
            'CREATE TABLE "group" ("order" integer PRIMARY KEY, "select" varchar(10));'
            'CREATE TABLE u (id integer, g integer REFERENCES "group")'
        )
        rendered = render_create_statements(catalog)
        assert rendered[0] == (
            'CREATE TABLE "group" (\n  "order" integer,\n  "select" varchar(10),\n'
            '  PRIMARY KEY ("order")\n);'
        )
        assert 'REFERENCES "group" ("order")' in rendered[1]
        assert ingest_ddl("\n".join(rendered), name=catalog.name) == catalog

    def test_reingest_preserves_inferred_edge_set(self, tpch_catalog_inferred):
        rendered = "\n".join(render_create_statements(tpch_catalog_inferred))
        again = ingest_ddl(rendered, name="tpch")
        assert {fk.key() for fk in again.fk_edges} == {
            fk.key() for fk in tpch_catalog_inferred.fk_edges
        }


class TestSerialization:
    def test_round_trip(self, tpch_catalog_inferred, tmp_path):
        save_catalog(tpch_catalog_inferred, tmp_path / "catalog.json")
        assert load_catalog(tmp_path / "catalog.json") == tpch_catalog_inferred

    def test_round_trip_with_metadata(self, tmp_path):
        catalog = ingest_ddl("CREATE TABLE t (sex CHAR(1), amount INT)")
        sampler = TestProfiling.ListSampler(
            {("t", "sex"): ["M", "F"], ("t", "amount"): ["3", "1", "2"]}
        )
        profiled = profile_columns(catalog, sampler)
        save_catalog(profiled, tmp_path / "catalog.json")
        assert load_catalog(tmp_path / "catalog.json") == profiled
