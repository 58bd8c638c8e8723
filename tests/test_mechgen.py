from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlsynth.errors import InsufficientPoolError
from sqlsynth.mechgen import (
    MechConfig,
    SeedExample,
    clause_tags,
    generate_mechanical,
    select_seed_examples,
)
from sqlsynth.schema import ingest_ddl, profile_columns
from sqlsynth.sqltree import (
    Binary,
    ColumnRef,
    InList,
    Join,
    Literal,
    Query,
    SelectCore,
    SelectItem,
    TableName,
    Unary,
    normalized_forms,
    parse_select,
    to_forms,
)
from sqlsynth.subschema import build_join_graph, enumerate_subschemas
from sqlsynth.validation import query_id, validate_relevance, validate_syntax

from tests.conftest import probability


@pytest.fixture(scope="module")
def subschemas(tpch_catalog_inferred):
    graph = build_join_graph(tpch_catalog_inferred)
    return enumerate_subschemas(graph)


@pytest.fixture(scope="module")
def four_table_subschema(subschemas):
    return next(s for s in subschemas if len(s.tables) == 4)


class TestConfig:
    def test_defaults_valid(self):
        MechConfig().validate()

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            MechConfig(p_group_by=1.5).validate()

    def test_having_requires_group_by(self):
        with pytest.raises(ValueError):
            MechConfig(p_group_by=0.0, p_having=0.5).validate()

    def test_empty_projection_range(self):
        with pytest.raises(ValueError):
            MechConfig(projection_count_range=(3, 2)).validate()


class TestGeneration:
    def test_deterministic(self, four_table_subschema, tpch_catalog_inferred):
        subschema, catalog, config = four_table_subschema, tpch_catalog_inferred, MechConfig()
        first = generate_mechanical(subschema, catalog, config, 25, seed=42)
        second = generate_mechanical(subschema, catalog, config, 25, seed=42)
        assert [r.sql for r in first] == [r.sql for r in second]

    def test_prefix_property(self, four_table_subschema, tpch_catalog_inferred):
        subschema, catalog, config = four_table_subschema, tpch_catalog_inferred, MechConfig()
        short = generate_mechanical(subschema, catalog, config, 5, seed=42)
        long = generate_mechanical(subschema, catalog, config, 15, seed=42)
        assert [r.sql for r in long[:5]] == [r.sql for r in short]

    def test_different_seeds_differ(self, four_table_subschema, tpch_catalog_inferred):
        a = generate_mechanical(
            four_table_subschema, tpch_catalog_inferred, MechConfig(), 10, seed=1
        )
        b = generate_mechanical(
            four_table_subschema, tpch_catalog_inferred, MechConfig(), 10, seed=2
        )
        assert [r.sql for r in a] != [r.sql for r in b]

    def test_zero_probability_means_no_group_by(self, four_table_subschema, tpch_catalog_inferred):
        config = MechConfig(p_group_by=0.0, p_having=0.0)
        records = generate_mechanical(
            four_table_subschema, tpch_catalog_inferred, config, 100, seed=3
        )
        assert all("GROUP BY" not in r.sql for r in records)

    def test_group_by_frequency_tracks_probability(
        self, four_table_subschema, tpch_catalog_inferred
    ):
        config = MechConfig(p_group_by=0.9)
        records = generate_mechanical(
            four_table_subschema, tpch_catalog_inferred, config, 10_000, seed=4
        )
        share = sum("GROUP BY" in r.sql for r in records) / len(records)
        assert 0.87 <= share <= 0.93

    def test_all_tables_joined(self, four_table_subschema, tpch_catalog_inferred):
        records = generate_mechanical(
            four_table_subschema, tpch_catalog_inferred, MechConfig(), 10, seed=5
        )
        for record in records:
            for table in four_table_subschema.tables:
                assert table in record.sql
            assert record.sql.count("INNER JOIN") == len(four_table_subschema.tables) - 1

    def test_every_query_validates(self, subschemas, tpch_catalog_inferred):
        # Cross-module regression: generation is correct by construction.
        rng = random.Random(0)
        config = MechConfig(p_group_by=0.5, p_having=0.4, p_where=0.8)
        for subschema in rng.sample(subschemas, 12):
            for record in generate_mechanical(
                subschema, tpch_catalog_inferred, config, 10, seed=6
            ):
                tree = validate_syntax(record.sql)
                codes = validate_relevance(tree, tpch_catalog_inferred, subschema=subschema)
                assert codes == [], f"{codes} for {record.sql}"

    def test_enum_filters_use_known_literals(self, tpch_catalog_inferred, subschemas):
        # Profile a column to a two-value domain and check filters obey it.
        from sqlsynth.schema import profile_columns

        class OneColumnSampler:
            def sample(self, table, column, limit):
                if (table, column) == ("lineitem", "l_returnflag"):
                    return ["A", "R", "N", "A"]
                raise KeyError((table, column))

        catalog = profile_columns(tpch_catalog_inferred, OneColumnSampler())
        lineitem_only = next(s for s in subschemas if s.tables == ("lineitem",))
        config = MechConfig(p_where=1.0, max_predicates=5)
        records = generate_mechanical(lineitem_only, catalog, config, 200, seed=7)
        for record in records:
            codes = validate_relevance(validate_syntax(record.sql), catalog)
            assert codes == []

    def test_label_columns_never_in_arithmetic(self, subschemas, tpch_catalog_inferred):
        from sqlsynth.schema import profile_columns

        class LabelSampler:
            def sample(self, table, column, limit):
                if (table, column) == ("part", "p_mfgr"):
                    return ["1.0.1", "2.0.4", "3.1.0"]
                raise KeyError((table, column))

        catalog = profile_columns(tpch_catalog_inferred, LabelSampler())
        assert catalog.table("part").column("p_mfgr").metadata.is_label
        part_only = next(s for s in subschemas if s.tables == ("part",))
        config = MechConfig(p_where=1.0, p_group_by=0.5, max_predicates=4)
        for record in generate_mechanical(part_only, catalog, config, 300, seed=8):
            codes = validate_relevance(validate_syntax(record.sql), catalog)
            assert codes == [], f"{codes} for {record.sql}"

    def test_single_table_subschema(self, subschemas, tpch_catalog_inferred):
        region_only = next(s for s in subschemas if s.tables == ("region",))
        records = generate_mechanical(
            region_only, tpch_catalog_inferred, MechConfig(), 5, seed=9
        )
        assert all("JOIN" not in r.sql for r in records)

    def test_mismatched_catalog_rejected(self, four_table_subschema):
        from sqlsynth.errors import UnknownObjectError
        from sqlsynth.schema import ingest_ddl

        other = ingest_ddl("CREATE TABLE solo (x INT)")
        with pytest.raises(UnknownObjectError):
            generate_mechanical(four_table_subschema, other, MechConfig(), 1)


class TestClauseTags:
    def test_tags(self):
        tags = clause_tags(
            "SELECT a, COUNT(*) FROM t JOIN u ON t.x = u.x "
            "WHERE a > 1 GROUP BY a HAVING COUNT(*) > 2 ORDER BY a"
        )
        assert {"group_by", "order_by", "having", "where", "join", "aggregate"} <= tags

    def test_plain_select(self):
        assert clause_tags("SELECT a FROM t") == frozenset()


class TestConstructionTags:
    @given(
        seed=st.integers(0, 2**31),
        index=st.integers(0, 10_000),
        p_where=probability,
        p_group_by=probability,
        p_having=probability,
        p_order_by=probability,
        p_aggregate=probability,
    )
    @settings(max_examples=150, deadline=None)
    def test_generator_tags_are_the_parsed_clause_tags(
        self, demo_inputs, seed, index, p_where, p_group_by, p_having, p_order_by, p_aggregate
    ):
        catalog, subschemas = demo_inputs
        config = MechConfig(
            p_where=p_where,
            p_group_by=p_group_by,
            p_having=p_having if p_group_by > 0 else 0.0,
            p_order_by=p_order_by,
            p_aggregate=p_aggregate,
        )
        subschema = subschemas[index % len(subschemas)]
        for record in generate_mechanical(subschema, catalog, config, 8, seed=seed):
            assert record.tags == clause_tags(record.sql), record.sql

    def test_seed_example_from_record(self, demo_inputs):
        catalog, subschemas = demo_inputs
        config = MechConfig(p_group_by=0.5, p_order_by=0.5)
        for record in generate_mechanical(subschemas[-1], catalog, config, 20, seed=3):
            example = SeedExample.from_record(record)
            record.tags = None  # as read from a file: the tags come from a parse
            assert SeedExample.from_record(record) == example


class TestConstructionTrees:
    """Each mechanical record carries the tree the parser makes of its SQL."""

    @given(
        seed=st.integers(0, 2**31),
        index=st.integers(0, 10_000),
        p_where=probability,
        p_group_by=probability,
        p_having=probability,
        p_order_by=probability,
        p_aggregate=probability,
        max_predicates=st.integers(1, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_tree_is_the_parse_of_the_sql(
        self, demo_inputs, seed, index, p_where, p_group_by, p_having, p_order_by,
        p_aggregate, max_predicates,
    ):
        catalog, subschemas = demo_inputs
        config = MechConfig(
            p_where=p_where,
            p_group_by=p_group_by,
            p_having=p_having if p_group_by > 0 else 0.0,
            p_order_by=p_order_by,
            p_aggregate=p_aggregate,
            max_predicates=max_predicates,
        )
        subschema = subschemas[index % len(subschemas)]
        for record in generate_mechanical(subschema, catalog, config, 8, seed=seed):
            assert record.tree is not None, record.sql
            assert parse_select(record.sql) == record.tree, record.sql
            # the forms printed from the tree are the scan of its printed SQL
            assert record.forms == to_forms(record.tree) == normalized_forms(record.sql)
            assert record.id == query_id(record.sql)

    def test_negative_literal_in_list_and_joins(self, demo_inputs):
        catalog, subschemas = demo_inputs
        subschema = next(s for s in subschemas if s.tables == ("customer", "nation", "orders"))
        config = MechConfig(p_where=1.0, max_predicates=3)
        record = generate_mechanical(subschema, catalog, config, 10, seed=41)[6]
        assert record.sql == (
            "SELECT orders.o_orderdate, nation.n_regionkey, orders.o_shippriority, "
            "orders.o_totalprice FROM customer "
            "INNER JOIN nation ON customer.c_nationkey = nation.n_nationkey "
            "INNER JOIN orders ON orders.o_custkey = customer.c_custkey "
            "WHERE customer.c_acctbal >= -95.63 "
            "OR customer.c_mktsegment IN ('FURNITURE', 'AUTOMOBILE')"
        )

        def ref(table, column):
            return ColumnRef(table, column)

        joins = Join(
            left=Join(
                left=TableName("customer"),
                right=TableName("nation"),
                kind="inner",
                condition=Binary("=", ref("customer", "c_nationkey"), ref("nation", "n_nationkey")),
            ),
            right=TableName("orders"),
            kind="inner",
            condition=Binary("=", ref("orders", "o_custkey"), ref("customer", "c_custkey")),
        )
        where = Binary(
            "or",
            Binary(">=", ref("customer", "c_acctbal"), Unary("-", Literal("number", "95.63"))),
            InList(
                expr=ref("customer", "c_mktsegment"),
                items=[Literal("string", "'FURNITURE'"), Literal("string", "'AUTOMOBILE'")],
            ),
        )
        expected = Query(
            ctes=[],
            body=SelectCore(
                distinct=False,
                items=[
                    SelectItem(ref("orders", "o_orderdate")),
                    SelectItem(ref("nation", "n_regionkey")),
                    SelectItem(ref("orders", "o_shippriority")),
                    SelectItem(ref("orders", "o_totalprice")),
                ],
                from_refs=[joins],
                where=where,
                group_by=[],
                having=None,
            ),
            order_by=[],
        )
        assert record.tree == expected
        assert parse_select(record.sql) == expected

    def test_reserved_word_names_are_quoted(self):
        # A name that would not read back unquoted is written double-quoted,
        # so every query over it parses to its tree and is accepted.
        catalog = ingest_ddl('CREATE TABLE t (id integer, "order" integer, "select" varchar(10))')
        subschema = enumerate_subschemas(build_join_graph(catalog))[0]
        records = generate_mechanical(subschema, catalog, MechConfig(), 20, seed=1)
        assert any('t."order"' in record.sql for record in records)
        assert any('t."select"' in record.sql for record in records)
        for record in records:
            assert parse_select(record.sql) == record.tree, record.sql
            assert validate_relevance(record.tree, catalog, subschema=subschema) == []

    def test_boolean_date_and_unmirrored_literals(self):
        # A sampled value that is no literal of its column's type (``nan`` in
        # a numeric column, ``t`` in a boolean one) is never written; a column
        # left with no such value gets the predicate of its type.
        catalog = ingest_ddl("CREATE TABLE t (id integer, flag boolean, d date, score decimal)")

        class Sampler:
            def sample(self, table, column, limit):
                return {
                    "id": ["1", "-2", "1e3"],
                    "flag": ["t", "f"],
                    "d": ["1995-01-01", "1996-06-30", "1997-03-15", "1998-12-31"],
                    "score": ["-1.5", "2.25", "nan"],
                }.get(column, [])

        catalog = profile_columns(catalog, Sampler(), enum_threshold=3)
        subschema = enumerate_subschemas(build_join_graph(catalog))[0]
        config = MechConfig(p_where=1.0, max_predicates=3)
        records = generate_mechanical(subschema, catalog, config, 200, seed=2)
        assert any("TRUE" in r.sql or "FALSE" in r.sql for r in records)
        assert any("t.d BETWEEN" in r.sql for r in records)
        assert any("t.id = -2" in r.sql for r in records)
        assert any("1e3" in r.sql for r in records)
        assert any("t.score IN (" in r.sql for r in records)
        for record in records:
            assert "nan" not in record.sql
            assert parse_select(record.sql) == record.tree, record.sql
            tree = validate_syntax(record.sql)
            assert validate_relevance(tree, catalog, subschema=subschema) == [], record.sql


def _quoted_catalog(texts, numbers):
    """One table of reserved-word names, profiled from ``texts`` for its
    string column and ``numbers`` for its numeric one, with a boolean, a date
    and a label column (filtered by IS NOT NULL, having no literals)."""
    catalog = ingest_ddl(
        'CREATE TABLE "order" ("select" varchar(20), "from" decimal, flag boolean, '
        "note varchar(10), d date)"
    )
    values = {
        "select": texts, "from": numbers, "flag": ["true", "false"],
        "d": ["1995-01-01", "1998-12-31"],
    }

    class Sampler:
        def sample(self, table, column, limit):
            return values.get(column, [])

    return profile_columns(
        catalog, Sampler(), enum_threshold=50, label_columns={("order", "note")}
    )


class TestPrintedForms:
    """A mechanical record's forms are printed from its tree
    (``sqltree.to_forms``) and equal the scan of the SQL printed from it,
    here over quoted names and odd literals (the demo catalog's are checked
    with its trees above)."""

    @given(
        seed=st.integers(0, 2**31),
        texts=st.lists(st.text("ab'%_ \n\"é", max_size=6), min_size=1, max_size=5),
        numbers=st.lists(
            st.sampled_from(["-2", "-0.50", "1e3", "-1E-2", "7", "3.25"]), min_size=1, max_size=4
        ),
        p_where=probability,
        p_group_by=probability,
        p_order_by=probability,
        p_aggregate=probability,
    )
    @settings(max_examples=100, deadline=None)
    def test_quoted_names_and_odd_literals(
        self, seed, texts, numbers, p_where, p_group_by, p_order_by, p_aggregate
    ):
        catalog = _quoted_catalog(texts, numbers)
        subschema = enumerate_subschemas(build_join_graph(catalog))[0]
        config = MechConfig(
            p_where=p_where, p_group_by=p_group_by, p_having=0.5 if p_group_by > 0 else 0.0,
            p_order_by=p_order_by, p_aggregate=p_aggregate, max_predicates=3,
        )
        for record in generate_mechanical(subschema, catalog, config, 8, seed=seed):
            assert record.forms == to_forms(record.tree) == normalized_forms(record.sql)

    def test_quoted_catalog_reaches_every_case(self):
        catalog = _quoted_catalog(["it's", "O''Hara", "plain"], ["-2", "-0.50", "1E3"])
        subschema = enumerate_subschemas(build_join_graph(catalog))[0]
        config = MechConfig(p_where=1.0, max_predicates=3)
        records = generate_mechanical(subschema, catalog, config, 200, seed=5)
        for needle in ('"order"."select"', '"order"."from"', "IS NOT NULL", "''",
                       "= -", "1E3", "TRUE", "FALSE"):
            assert any(needle in record.sql for record in records), needle
        for record in records:
            assert record.forms == to_forms(record.tree) == normalized_forms(record.sql)


class TestSeedExamples:
    def _pool(self, with_group_by: int, without: int):
        sqls = [f"SELECT a, COUNT(*) FROM t{i} GROUP BY a" for i in range(with_group_by)]
        sqls += [f"SELECT a FROM u{i}" for i in range(without)]
        return [SeedExample(sql=sql, features=clause_tags(sql)) for sql in sqls]

    def test_zero_shot(self):
        assert select_seed_examples(self._pool(2, 2), 0) == []

    def test_full_bias_weight(self):
        pool = self._pool(5, 5)
        examples = select_seed_examples(pool, 3, bias="group_by", bias_weight=1.0, rng_seed=1)
        assert all("group_by" in e.features for e in examples)

    def test_insufficient_pool(self):
        with pytest.raises(InsufficientPoolError):
            select_seed_examples(self._pool(1, 1), 3)

    def test_without_replacement(self):
        pool = self._pool(3, 3)
        examples = select_seed_examples(pool, 6, rng_seed=2)
        assert len({e.sql for e in examples}) == 6

    def test_exhausted_subpool_falls_back(self):
        pool = self._pool(1, 4)
        examples = select_seed_examples(pool, 5, bias="group_by", bias_weight=1.0, rng_seed=3)
        assert len(examples) == 5

    def test_bias_weight_monte_carlo(self):
        # Per-slot frequency of the biased clause converges to the weight
        # when both sub-pools stay ample.
        pool = self._pool(40, 40)
        hits = 0
        draws = 0
        for trial in range(4_000):
            examples = select_seed_examples(
                pool, 3, bias="group_by", bias_weight=0.9, rng_seed=trial
            )
            hits += sum("group_by" in e.features for e in examples)
            draws += len(examples)
        share = hits / draws
        assert 0.87 <= share <= 0.93, share

    def test_deterministic(self):
        pool = self._pool(5, 5)
        a = select_seed_examples(pool, 3, bias="order_by", rng_seed=7)
        b = select_seed_examples(pool, 3, bias="order_by", rng_seed=7)
        assert a == b

    def test_seed_example_is_frozen(self):
        example = SeedExample(sql="SELECT 1", features=frozenset())
        with pytest.raises(AttributeError):
            example.sql = "other"
