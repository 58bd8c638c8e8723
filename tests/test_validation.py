from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlsynth.errors import SqlSyntaxError
from sqlsynth.records import make_record
from sqlsynth.schema import ingest_ddl, profile_columns
from sqlsynth.sqltree import normalize_sql
from sqlsynth.subschema import Subschema, subschema_id
from sqlsynth.validation import (
    REJECT_DUPLICATE,
    REJECT_ENUM_LITERAL,
    REJECT_LABEL_ARITHMETIC,
    REJECT_UNKNOWN_OBJECT,
    REJECT_WRONG_TABLES,
    ValidationReport,
    deduplicate,
    query_id,
    resolve_references,
    validate_relevance,
    validate_syntax,
)

DATA_DIR = Path(__file__).parent / "data"


class DictSampler:
    def __init__(self, samples: dict):
        self.samples = samples

    def sample(self, table, column, limit):
        key = f"{table}.{column}"
        if key not in self.samples:
            raise KeyError(key)
        return self.samples[key][:limit]


@pytest.fixture(scope="module")
def fixture_data():
    return json.loads((DATA_DIR / "validator_fixture.json").read_text())


@pytest.fixture(scope="module")
def fixture_catalog(fixture_data):
    catalog = ingest_ddl(fixture_data["ddl"], name="builds")
    return profile_columns(catalog, DictSampler(fixture_data["samples"]))


@pytest.fixture()
def metadata_catalog():
    catalog = ingest_ddl(
        "CREATE TABLE t (a INT, version VARCHAR(10), flag CHAR(1));"
        "CREATE TABLE u (a INT, b INT)"
    )
    samples = {
        "t.a": ["1", "2"],
        "t.version": ["1.0.1", "2.0.4"],
        "t.flag": ["Y", "N"],
        "u.a": ["1"],
        "u.b": ["2"],
    }
    return profile_columns(catalog, DictSampler(samples))


def relevance(sql, catalog, **kwargs):
    return validate_relevance(validate_syntax(sql), catalog, **kwargs)


class TestSyntax:
    def test_valid_returns_tree(self):
        assert validate_syntax("SELECT 1") is not None

    def test_invalid_raises_with_position(self):
        with pytest.raises(SqlSyntaxError) as err:
            validate_syntax("SELECT FROM t")
        assert err.value.position > 0

    def test_having_tree(self):
        tree = validate_syntax("SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1")
        assert tree.body.having is not None


class TestRelevance:
    def test_clean_query(self, metadata_catalog):
        assert relevance("SELECT a FROM t WHERE flag = 'Y'", metadata_catalog) == []

    def test_label_arithmetic(self, metadata_catalog):
        assert relevance("SELECT version + 1 FROM t", metadata_catalog) == [
            REJECT_LABEL_ARITHMETIC
        ]

    def test_enum_literal_violation(self, metadata_catalog):
        assert relevance("SELECT a FROM t WHERE flag = 'MAYBE'", metadata_catalog) == [
            REJECT_ENUM_LITERAL
        ]

    def test_unknown_table(self, metadata_catalog):
        assert relevance("SELECT a FROM ghost", metadata_catalog) == [REJECT_UNKNOWN_OBJECT]

    def test_unknown_column(self, metadata_catalog):
        assert relevance("SELECT ghost FROM t", metadata_catalog) == [REJECT_UNKNOWN_OBJECT]

    def test_ambiguous_unqualified_column(self, metadata_catalog):
        codes = relevance("SELECT a FROM t JOIN u ON t.a = u.a", metadata_catalog)
        assert codes == [REJECT_UNKNOWN_OBJECT]

    def test_alias_resolution(self, metadata_catalog):
        assert relevance("SELECT x.a FROM t x WHERE x.flag = 'N'", metadata_catalog) == []

    def test_correlated_subquery(self, metadata_catalog):
        sql = "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.b = t.a)"
        assert relevance(sql, metadata_catalog) == []

    def test_cte_columns_visible(self, metadata_catalog):
        sql = "WITH w AS (SELECT a FROM t) SELECT a FROM w"
        assert relevance(sql, metadata_catalog) == []

    def test_cte_bad_column(self, metadata_catalog):
        sql = "WITH w AS (SELECT a FROM t) SELECT w.nope FROM w"
        assert relevance(sql, metadata_catalog) == [REJECT_UNKNOWN_OBJECT]

    def test_derived_table_alias_columns(self, metadata_catalog):
        sql = "SELECT s.q FROM (SELECT a AS q FROM t) s"
        assert relevance(sql, metadata_catalog) == []

    def test_enum_check_inside_subquery(self, metadata_catalog):
        sql = "SELECT a FROM u WHERE a IN (SELECT a FROM t WHERE flag = 'Q')"
        assert relevance(sql, metadata_catalog) == [REJECT_ENUM_LITERAL]

    def test_subschema_subset_ok(self, metadata_catalog):
        sub = Subschema(id=subschema_id(["t", "u"]), tables=("t", "u"), spanning_joins=[])
        assert relevance("SELECT t.a FROM t", metadata_catalog, subschema=sub) == []

    def test_subschema_outside_table(self, metadata_catalog):
        sub = Subschema(id=subschema_id(["u"]), tables=("u",), spanning_joins=[])
        codes = relevance("SELECT t.a FROM t", metadata_catalog, subschema=sub)
        assert codes == [REJECT_WRONG_TABLES]

    def test_subschema_exact_mode(self, metadata_catalog):
        sub = Subschema(id=subschema_id(["t", "u"]), tables=("t", "u"), spanning_joins=[])
        codes = relevance(
            "SELECT t.a FROM t", metadata_catalog, subschema=sub, require_exact_tables=True
        )
        assert codes == [REJECT_WRONG_TABLES]

    def test_numeric_enum_comparison(self):
        catalog = ingest_ddl("CREATE TABLE t (lvl INT)")
        catalog = profile_columns(catalog, DictSampler({"t.lvl": ["1", "2", "3"]}))
        assert relevance("SELECT lvl FROM t WHERE lvl = 2", catalog) == []
        assert relevance("SELECT lvl FROM t WHERE lvl = 9", catalog) == [REJECT_ENUM_LITERAL]

    @pytest.mark.parametrize(
        "condition, codes",
        [
            ("r_regionkey = 4", []),
            ("r_regionkey = -0", []),
            ("r_regionkey = 999", [REJECT_ENUM_LITERAL]),
            ("r_regionkey = -999", [REJECT_ENUM_LITERAL]),
            ("-999 = r_regionkey", [REJECT_ENUM_LITERAL]),
            ("r_regionkey IN (1, 2)", []),
            ("r_regionkey IN (1, -999)", [REJECT_ENUM_LITERAL]),
        ],
    )
    def test_negative_enum_literal(self, demo_inputs, condition, codes):
        """A minus sign before a number is the negative number, checked
        against the enumeration (r_regionkey is enumerated 0..4)."""
        sql = f"SELECT r_name FROM region WHERE {condition}"
        assert relevance(sql, demo_inputs[0]) == codes

    @pytest.mark.parametrize(
        "sql, codes",
        [
            ("SELECT r_name FROM region LIMIT (SELECT count(*) FROM ghost)",
             [REJECT_UNKNOWN_OBJECT]),
            ("SELECT r_name FROM region LIMIT 1 OFFSET (SELECT count(*) FROM ghost)",
             [REJECT_UNKNOWN_OBJECT]),
            ("SELECT r_name FROM region LIMIT (SELECT max(ghost) FROM nation)",
             [REJECT_UNKNOWN_OBJECT]),
            ("SELECT r_name FROM region LIMIT (SELECT count(*) FROM nation) OFFSET 1", []),
        ],
    )
    def test_limit_and_offset_resolved(self, demo_inputs, sql, codes):
        assert relevance(sql, demo_inputs[0]) == codes

    def test_non_equality_ops_not_enum_checked(self, metadata_catalog):
        # Only equality / IN filters are constrained to the enumeration.
        assert relevance("SELECT a FROM t WHERE flag > 'A'", metadata_catalog) == []

    def test_reference_counting(self, metadata_catalog):
        refs = resolve_references(
            validate_syntax(
                "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1 ORDER BY a"
            ),
            metadata_catalog,
        )
        assert dict(refs.tables) == {"t": 1}
        assert dict(refs.columns) == {"t.a": 3}


class TestFixtureCorpus:
    def test_counts(self, fixture_data):
        expects = [q["expect"] for q in fixture_data["queries"]]
        assert len(expects) == 30
        assert expects.count("label_arithmetic") == 10
        assert expects.count("enum_literal_violation") == 10
        assert expects.count("clean") == 10

    def test_zero_false_accepts_and_rejects(self, fixture_data, fixture_catalog):
        for entry in fixture_data["queries"]:
            codes = relevance(entry["sql"], fixture_catalog)
            if entry["expect"] == "clean":
                assert codes == [], f"false reject: {entry['sql']} -> {codes}"
            else:
                assert codes == [entry["expect"]], f"misclassified: {entry['sql']} -> {codes}"


class TestDeduplicate:
    def _records(self, *sqls):
        return [make_record(sql, "mechanical", "s1") for sql in sqls]

    def _with_reports(self, records, literal_placeholders=True):
        # the dedup key as validate_record chooses it
        for record in records:
            key = normalize_sql(record.sql, literal_placeholders=literal_placeholders)
            record.validation = ValidationReport(normalized_form=key)
        return records

    def test_whitespace_case_duplicates(self):
        records = self._with_reports(self._records("SELECT a FROM t", "select  a  from  t"))
        kept, dropped = deduplicate(records)
        assert len(kept) == 1
        assert len(dropped) == 1
        assert dropped[0].validation.rejection_reasons == [REJECT_DUPLICATE]

    def test_literal_placeholders_on_by_default(self):
        records = self._with_reports(
            self._records("SELECT a FROM t WHERE x=1", "SELECT a FROM t WHERE x=2")
        )
        kept, dropped = deduplicate(records)
        assert len(kept) == 1 and len(dropped) == 1

    def test_literal_placeholders_off(self):
        records = self._with_reports(
            self._records("SELECT a FROM t WHERE x=1", "SELECT a FROM t WHERE x=2"),
            literal_placeholders=False,
        )
        kept, dropped = deduplicate(records)
        assert len(kept) == 2 and not dropped

    def test_structurally_different_kept(self):
        records = self._with_reports(
            self._records("SELECT a FROM t", "SELECT b FROM t WHERE a > 1")
        )
        kept, dropped = deduplicate(records)
        assert len(kept) == 2 and not dropped

    def test_order_stable(self):
        records = self._with_reports(
            self._records("SELECT a FROM t", "SELECT b FROM t", "select a from t")
        )
        kept, _ = deduplicate(records)
        assert [r.sql for r in kept] == ["SELECT a FROM t", "SELECT b FROM t"]

    def test_idempotent(self):
        records = self._with_reports(
            self._records("SELECT a FROM t", "select a from t", "SELECT b FROM t")
        )
        kept, _ = deduplicate(records)
        kept_again, dropped_again = deduplicate(kept)
        assert kept_again == kept and not dropped_again

    @given(st.lists(st.sampled_from([
        "SELECT a FROM t",
        "select a from t",
        "SELECT a FROM t WHERE x = 1",
        "SELECT a FROM t WHERE x = 42",
        "SELECT b, a FROM t",
        "SELECT a FROM t ORDER BY a",
    ]), max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_idempotence_property(self, sqls):
        records = self._with_reports(self._records(*sqls))
        kept, _ = deduplicate(records)
        kept_again, dropped_again = deduplicate(kept)
        assert not dropped_again
        assert [r.sql for r in kept_again] == [r.sql for r in kept]

    @pytest.mark.parametrize("report", [None, ValidationReport()])
    def test_record_without_key_is_named(self, report):
        records = self._with_reports(self._records("SELECT a FROM t", "SELECT b FROM t"))
        records[1].validation = report
        with pytest.raises(ValueError, match=f"record {records[1].id} has no dedup key"):
            deduplicate(records)


class TestQueryId:
    def test_stable_across_formatting(self):
        assert query_id("SELECT a FROM t") == query_id("select  A \n from T")

    def test_distinct_literals_distinct_ids(self):
        assert query_id("SELECT a FROM t WHERE x=1") != query_id("SELECT a FROM t WHERE x=2")


class TestWindowResolution:
    def test_window_references_resolved(self, metadata_catalog):
        sql = "SELECT SUM(a) OVER (PARTITION BY flag ORDER BY a) FROM t"
        assert relevance(sql, metadata_catalog) == []

    def test_unknown_column_in_window_rejected(self, metadata_catalog):
        sql = "SELECT SUM(a) OVER (PARTITION BY ghost) FROM t"
        assert relevance(sql, metadata_catalog) == [REJECT_UNKNOWN_OBJECT]
