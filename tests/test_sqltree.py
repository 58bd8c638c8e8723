from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlsynth import sqltree
from sqlsynth.errors import SqlSyntaxError
from sqlsynth.sqltree import (
    Between,
    Binary,
    Case,
    Cast,
    ColumnRef,
    DerivedTable,
    Exists,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Join,
    Like,
    Literal,
    OrderItem,
    Query,
    SelectCore,
    SelectItem,
    SetOp,
    Star,
    TableName,
    Unary,
    bare_name,
    literal_node,
    normalize_sql,
    normalize_text,
    normalized_forms,
    parse_select,
    sql_name,
    to_forms,
    to_sql,
    tokenize,
)
from sqlsynth.validation import query_id

from tests.conftest import DEMO_SQL, sql_texts, tokenizes


def core(sql: str) -> SelectCore:
    query = parse_select(sql)
    assert isinstance(query.body, SelectCore)
    return query.body


class TestBasics:
    def test_select_literal(self):
        c = core("SELECT 1")
        assert c.items[0].expr == Literal(kind="number", text="1")
        assert c.from_refs == []

    def test_select_columns_and_alias(self):
        c = core("SELECT a, b AS total, t.c FROM t")
        assert c.items[0].expr == ColumnRef(table=None, name="a")
        assert c.items[1].alias == "total"
        assert c.items[2].expr == ColumnRef(table="t", name="c")
        assert c.from_refs == [TableName(name="t", alias=None)]

    def test_star_and_qualified_star(self):
        c = core("SELECT *, t.* FROM t")
        assert c.items[0].expr == Star()
        assert c.items[1].expr == Star(table="t")

    def test_implicit_table_alias(self):
        c = core("SELECT x.a FROM things x")
        assert c.from_refs == [TableName(name="things", alias="x")]

    def test_distinct(self):
        assert core("SELECT DISTINCT a FROM t").distinct
        assert not core("SELECT ALL a FROM t").distinct

    def test_case_insensitive_keywords(self):
        c = core("select A from T where B = 1")
        assert c.items[0].expr == ColumnRef(table=None, name="a")
        assert c.from_refs[0].name == "t"

    def test_trailing_semicolon_ok(self):
        core("SELECT 1;")

    def test_comments_ignored(self):
        c = core("SELECT a -- pick a\nFROM t /* the table */ WHERE a > 0")
        assert c.where is not None

    def test_quoted_identifiers(self):
        c = core('SELECT "Weird Name", `other` FROM "My Table"')
        assert c.items[0].expr == ColumnRef(table=None, name="weird name")
        assert c.from_refs[0].name == "my table"


class TestClauses:
    def test_where_group_having_order_limit(self):
        query = parse_select(
            "SELECT a, COUNT(*) FROM t WHERE b > 1 GROUP BY a "
            "HAVING COUNT(*) > 2 ORDER BY a DESC LIMIT 10 OFFSET 5"
        )
        c = query.body
        assert c.where == Binary(op=">", left=ColumnRef(None, "b"), right=Literal("number", "1"))
        assert c.group_by == [ColumnRef(None, "a")]
        assert isinstance(c.having, Binary)
        assert query.order_by[0].direction == "desc"
        assert query.limit == Literal("number", "10")
        assert query.offset == Literal("number", "5")

    def test_group_by_multiple(self):
        c = core("SELECT a, b FROM t GROUP BY a, b")
        assert len(c.group_by) == 2

    def test_order_by_nulls_last(self):
        query = parse_select("SELECT a FROM t ORDER BY a ASC NULLS LAST")
        assert query.order_by[0].direction == "asc"

    def test_columns_in_every_clause(self):
        body = core(
            "SELECT a, SUM(b) FROM t WHERE c IN (SELECT d FROM u) GROUP BY a HAVING SUM(b) > 1"
        )
        a, b = ColumnRef(None, "a"), ColumnRef(None, "b")
        assert [item.expr for item in body.items] == [a, FuncCall("sum", [b])]
        assert body.where.expr == ColumnRef(None, "c")
        assert body.where.query.body.items == [SelectItem(ColumnRef(None, "d"))]
        assert body.group_by == [a]
        assert body.having == Binary(">", FuncCall("sum", [b]), Literal("number", "1"))


class TestJoins:
    def test_inner_join_on(self):
        c = core("SELECT * FROM a INNER JOIN b ON a.x = b.y")
        join = c.from_refs[0]
        assert isinstance(join, Join)
        assert join.kind == "inner"
        assert isinstance(join.condition, Binary)

    def test_bare_join_is_inner(self):
        assert core("SELECT * FROM a JOIN b ON a.x = b.y").from_refs[0].kind == "inner"

    def test_left_outer_join(self):
        assert core("SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.y").from_refs[0].kind == "left"

    def test_cross_join_no_condition(self):
        join = core("SELECT * FROM a CROSS JOIN b").from_refs[0]
        assert join.kind == "cross"
        assert join.condition is None

    def test_join_using(self):
        join = core("SELECT * FROM a JOIN b USING (k)").from_refs[0]
        assert join.using == ["k"]

    def test_join_chain_left_deep(self):
        join = core(
            "SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y"
        ).from_refs[0]
        assert isinstance(join.left, Join)
        assert join.right == TableName(name="c", alias=None)

    def test_comma_list(self):
        c = core("SELECT * FROM a, b, c WHERE a.x = b.x")
        assert len(c.from_refs) == 3

    def test_join_requires_condition(self):
        with pytest.raises(SqlSyntaxError):
            parse_select("SELECT * FROM a JOIN b")


class TestSubqueries:
    def test_derived_table(self):
        c = core("SELECT s.x FROM (SELECT x FROM t) s")
        derived = c.from_refs[0]
        assert isinstance(derived, DerivedTable)
        assert derived.alias == "s"

    def test_derived_table_requires_alias(self):
        with pytest.raises(SqlSyntaxError):
            parse_select("SELECT x FROM (SELECT x FROM t)")

    def test_scalar_subquery(self):
        c = core("SELECT (SELECT MAX(x) FROM t) FROM u")
        assert isinstance(c.items[0].expr, sqltree.ScalarSubquery)

    def test_in_subquery(self):
        c = core("SELECT a FROM t WHERE a IN (SELECT b FROM u)")
        assert isinstance(c.where, InSubquery)

    def test_exists(self):
        c = core("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.x = t.a)")
        assert isinstance(c.where, Exists)

    def test_with_cte(self):
        query = parse_select(
            "WITH big AS (SELECT a FROM t WHERE a > 10) SELECT * FROM big"
        )
        assert query.ctes[0].name == "big"
        assert isinstance(query.ctes[0].query.body, SelectCore)

    def test_cte_with_column_list(self):
        query = parse_select("WITH v (x, y) AS (SELECT a, b FROM t) SELECT x FROM v")
        assert query.ctes[0].columns == ["x", "y"]

    def test_select_core_count(self):
        query = parse_select(
            "SELECT x FROM (SELECT x FROM t WHERE x IN (SELECT y FROM u)) s"
        )
        (derived,) = query.body.from_refs
        assert isinstance(derived, DerivedTable)
        middle = derived.query.body
        assert isinstance(middle.where, InSubquery)
        inner = middle.where.query.body
        assert inner == core("SELECT y FROM u")
        assert [isinstance(c, SelectCore) for c in (query.body, middle, inner)] == [True] * 3


class TestSetOps:
    def test_union(self):
        query = parse_select("SELECT a FROM t UNION SELECT b FROM u")
        assert isinstance(query.body, SetOp)
        assert query.body.op == "union"
        assert not query.body.all

    def test_union_all(self):
        assert parse_select("SELECT a FROM t UNION ALL SELECT a FROM u").body.all

    def test_intersect_binds_tighter(self):
        query = parse_select("SELECT a FROM t UNION SELECT b FROM u INTERSECT SELECT c FROM v")
        assert query.body.op == "union"
        assert query.body.right.op == "intersect"

    def test_order_by_applies_to_whole(self):
        query = parse_select("SELECT a FROM t UNION SELECT b FROM u ORDER BY 1")
        assert isinstance(query.body, SetOp)
        assert len(query.order_by) == 1


class TestExpressions:
    def test_precedence_or_and(self):
        c = core("SELECT 1 FROM t WHERE a = 1 OR b = 2 AND c = 3")
        assert c.where.op == "or"
        assert c.where.right.op == "and"

    def test_not(self):
        c = core("SELECT 1 FROM t WHERE NOT a = 1")
        assert isinstance(c.where, sqltree.Unary)
        assert c.where.op == "not"

    def test_arithmetic_precedence(self):
        c = core("SELECT a + b * c FROM t")
        expr = c.items[0].expr
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_between(self):
        c = core("SELECT 1 FROM t WHERE a BETWEEN 1 AND 10 AND b = 2")
        assert c.where.op == "and"
        assert isinstance(c.where.left, Between)

    def test_not_between(self):
        c = core("SELECT 1 FROM t WHERE a NOT BETWEEN 1 AND 2")
        assert c.where.negated

    def test_in_list(self):
        c = core("SELECT 1 FROM t WHERE a IN (1, 2, 3)")
        assert isinstance(c.where, InList)
        assert len(c.where.items) == 3

    def test_like_escape(self):
        c = core("SELECT 1 FROM t WHERE name LIKE 'a%' ESCAPE '\\'")
        assert isinstance(c.where, Like)
        assert c.where.escape is not None

    def test_is_null(self):
        c = core("SELECT 1 FROM t WHERE a IS NOT NULL")
        assert c.where.negated

    def test_case_searched(self):
        c = core("SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t")
        expr = c.items[0].expr
        assert isinstance(expr, Case)
        assert expr.operand is None
        assert len(expr.whens) == 1

    def test_case_with_operand(self):
        expr = core("SELECT CASE a WHEN 1 THEN 'one' WHEN 2 THEN 'two' END FROM t").items[0].expr
        assert expr.operand is not None
        assert len(expr.whens) == 2

    def test_cast(self):
        expr = core("SELECT CAST(a AS DECIMAL(10, 2)) FROM t").items[0].expr
        assert isinstance(expr, Cast)
        assert expr.type_name == "decimal(10,2)"

    def test_count_star_and_distinct(self):
        c = core("SELECT COUNT(*), COUNT(DISTINCT a) FROM t")
        assert c.items[0].expr == FuncCall(name="count", star=True)
        assert c.items[1].expr.distinct

    def test_nested_functions(self):
        expr = core("SELECT SUM(a * (1 - b)) FROM t").items[0].expr
        assert expr.name == "sum"
        assert isinstance(expr.args[0], Binary)

    def test_typed_date_literal(self):
        c = core("SELECT 1 FROM t WHERE d >= DATE '1995-01-01'")
        assert c.where.right == Literal(kind="date", text="date '1995-01-01'")

    def test_interval_literal(self):
        c = core("SELECT 1 FROM t WHERE d < DATE '1995-01-01' + INTERVAL '3' MONTH")
        assert c.where.right.right.kind == "interval"

    def test_date_still_usable_as_column(self):
        c = core("SELECT date FROM t WHERE date > 5")
        assert c.items[0].expr == ColumnRef(table=None, name="date")

    def test_extract(self):
        expr = core("SELECT EXTRACT(YEAR FROM d) FROM t").items[0].expr
        assert expr.name == "extract"
        assert expr.args == [ColumnRef(table=None, name="d")]

    def test_concat_operator(self):
        expr = core("SELECT a || b FROM t").items[0].expr
        assert expr.op == "||"

    def test_string_escape(self):
        expr = core("SELECT 'it''s' FROM t").items[0].expr
        assert expr.text == "'it''s'"

    def test_current_date_bare(self):
        expr = core("SELECT current_date FROM t").items[0].expr
        assert expr == FuncCall(name="current_date")


class TestErrors:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT FROM t",
            "SELECT a FROM",
            "SELECT a FROM t WHERE",
            "SELECT a FROM t GROUP a",
            "SELECT a FROM t extra garbage ,",
            "SELECT a FROM t WHERE a = ",
            "SELECT a FROM t WHERE a NOT 5",
            "SELECT CASE END FROM t",
            "UPDATE t SET a = 1",
            "SELECT 'unterminated FROM t",
            "SELECT a FROM t WHERE a ~ 5",
            "SELECT (a FROM t",
        ],
    )
    def test_rejects(self, sql):
        with pytest.raises(SqlSyntaxError):
            parse_select(sql)

    def test_error_has_position(self):
        with pytest.raises(SqlSyntaxError) as err:
            parse_select("SELECT a FROM t WHERE (a = 1")
        assert err.value.line == 1
        assert err.value.position > 0

    def test_multiline_position(self):
        with pytest.raises(SqlSyntaxError) as err:
            parse_select("SELECT a\nFROM t\nWHERE ???")
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "sql, position, line, column",
        [
            ("SELECT a\n  FROM t WHERE (a = 1", 30, 2, 22),  # parser: end of input
            ("SELECT 'x\ny'\n , ?", 16, 3, 4),  # tokenizer: '?' after a string's newline
        ],
    )
    def test_error_line_and_column(self, sql, position, line, column):
        with pytest.raises(SqlSyntaxError) as err:
            parse_select(sql)
        assert (err.value.position, err.value.line, err.value.column) == (position, line, column)

    def test_unterminated_block_comment(self):
        with pytest.raises(SqlSyntaxError, match="unterminated block comment") as err:
            tokenize("SELECT 1 /* note")
        assert (err.value.position, err.value.line, err.value.column) == (9, 1, 10)
        with pytest.raises(SqlSyntaxError, match="unterminated block comment"):
            parse_select("SELECT 1 /* note")
        assert parse_select("SELECT 1 /* note */") == parse_select("SELECT 1")
        assert normalized_forms("SELECT 1 /* note") == ("select 1 /* note",) * 2


class TestNodesForGeneratedText:
    @pytest.mark.parametrize(
        "text", ["1", "-1.50", "-0.00", "1e3", ".5", "7.", "'x'", "'it''s'", "''", "TRUE", "false"]
    )
    def test_literal_node_is_the_parsed_operand(self, text):
        assert literal_node(text) is not None
        assert literal_node(text) == core(f"SELECT a FROM t WHERE a = {text}").where.right

    @pytest.mark.parametrize(
        "text", ["", "-", "nan", "-inf", "+1", "--1", "- 1", "1 2", "'a' 'b'", "'it's'", "NULL",
                 "-'x'", "-TRUE", "DATE '1995-01-01'"],
    )
    def test_literal_node_declines_other_text(self, text):
        assert literal_node(text) is None

    @pytest.mark.parametrize("name", ["lineitem", "L_OrderKey", "date", "x$1", "_t"])
    def test_bare_name_parses_back(self, name):
        assert bare_name(name)
        low = name.lower()
        parsed = core(f"SELECT {name}.{name} FROM {name} WHERE {name}.{name} = 1")
        assert parsed.items[0].expr == ColumnRef(low, low)
        assert parsed.from_refs == [TableName(low)]
        assert parsed.where.left == ColumnRef(low, low)

    @pytest.mark.parametrize(
        "name", ["order", "select", "true", "null", "current_date", "a b", "1x", "", '"q"', "t.c"]
    )
    def test_bare_name_declines(self, name):
        assert not bare_name(name)


def select(*items, from_ref=TableName("t"), where=None, order_by=()) -> Query:
    core = SelectCore(
        distinct=False,
        items=[SelectItem(item) for item in items],
        from_refs=[from_ref],
        where=where,
        group_by=[],
        having=None,
    )
    return Query(ctes=[], body=core, order_by=list(order_by))


#: Trees :func:`to_sql` prints, with the text it prints of each.
PRINTED_TREES = [
    (
        select(ColumnRef("t", "a"), where=IsNull(ColumnRef("t", "b"))),
        "SELECT t.a FROM t WHERE t.b IS NULL",
    ),
    (
        select(ColumnRef("t", "a"), where=IsNull(ColumnRef("t", "b"), negated=True)),
        "SELECT t.a FROM t WHERE t.b IS NOT NULL",
    ),
    (
        select(
            FuncCall("sum", [ColumnRef("t", "a")]),
            where=Binary(">=", ColumnRef("t", "a"), Unary("-", Literal("number", "1.50"))),
        ),
        "SELECT SUM(t.a) FROM t WHERE t.a >= -1.50",
    ),
    (
        select(
            ColumnRef("order", "select"),
            from_ref=TableName("order"),
            order_by=[OrderItem(ColumnRef("order", "a b"), "desc")],
        ),
        'SELECT "order"."select" FROM "order" ORDER BY "order"."a b" DESC',
    ),
    (
        select(
            FuncCall("count", star=True),
            from_ref=Join(
                left=Join(
                    left=TableName("t"),
                    right=TableName("u"),
                    kind="inner",
                    condition=Binary(
                        "and",
                        Binary("=", ColumnRef("t", "a"), ColumnRef("u", "a")),
                        Binary("=", ColumnRef("t", "b"), ColumnRef("u", "b")),
                    ),
                ),
                right=TableName("v"),
                kind="inner",
                condition=Binary("=", ColumnRef("u", "c"), ColumnRef("v", "c")),
            ),
        ),
        "SELECT COUNT(*) FROM t INNER JOIN u ON t.a = u.a AND t.b = u.b "
        "INNER JOIN v ON u.c = v.c",
    ),
    (
        select(
            ColumnRef("t", "a"),
            where=Binary(
                "or",
                Binary("=", ColumnRef("t", "flag"), Literal("boolean", "FALSE")),
                Binary(
                    "and",
                    Binary("<>", ColumnRef("t", "s"), Literal("string", "'it''s'")),
                    InList(
                        ColumnRef("t", "n"), [Literal("number", "1E3"), Literal("null", "NULL")]
                    ),
                ),
            ),
        ),
        "SELECT t.a FROM t WHERE t.flag = FALSE OR t.s <> 'it''s' AND t.n IN (1E3, NULL)",
    ),
]


class TestToSql:
    """to_sql writes text that parse_select reads back as the tree itself."""

    @pytest.mark.parametrize("tree, text", PRINTED_TREES)
    def test_reads_back_as_the_tree(self, tree, text):
        assert to_sql(tree) == text
        assert parse_select(to_sql(tree)) == tree

    def test_unprinted_kind_raises(self):
        case = Case(operand=None, whens=[(Literal("boolean", "TRUE"), Literal("number", "1"))],
                    else_=None)
        with pytest.raises(TypeError, match="Case"):
            to_sql(select(case))
        with pytest.raises(TypeError, match="Case"):
            to_forms(select(case))

    @pytest.mark.parametrize("tree, text", PRINTED_TREES)
    def test_printed_forms_are_the_scan_of_the_text(self, tree, text):
        assert to_forms(tree) == normalized_forms(text)

    def test_printed_forms_of_quoted_names_and_literals(self):
        tree = select(
            ColumnRef("order", "a b"),
            from_ref=TableName("order"),
            where=Binary(
                "and",
                Binary("=", ColumnRef("order", 'Q"t'), Literal("string", "'O''Hara'")),
                Binary(">", ColumnRef("order", "select"), Unary("-", Literal("number", "2.5E1"))),
            ),
        )
        assert to_forms(tree) == (
            "select order . a b from order where order . q\"t = 'O''Hara' "
            "and order . select > - 2.5e1",
            "select order . a b from order where order . q\"t = :str "
            "and order . select > - :num",
        )
        assert to_forms(tree) == normalized_forms(to_sql(tree))

    def test_multi_token_literal_raises(self):
        tree = select(ColumnRef("t", "a"), where=Binary(
            "<", ColumnRef("t", "d"), Literal("date", "DATE '1995-01-01'")))
        with pytest.raises(TypeError, match="date literals"):
            to_forms(tree)

    @pytest.mark.parametrize(
        "name, text", [("lineitem", "lineitem"), ("order", '"order"'), ('a"b', '"a""b"')]
    )
    def test_sql_name(self, name, text):
        assert sql_name(name) == text


class TestNormalize:
    def test_case_and_whitespace(self):
        assert normalize_sql("SELECT  a\nFROM   t") == normalize_sql("select a from t")

    def test_literal_placeholders(self):
        a = normalize_sql("SELECT a FROM t WHERE x = 1")
        b = normalize_sql("SELECT a FROM t WHERE x = 2")
        assert a == b
        assert ":num" in a

    def test_string_placeholder(self):
        a = normalize_sql("SELECT a FROM t WHERE s = 'x'")
        b = normalize_sql("SELECT a FROM t WHERE s = 'y'")
        assert a == b

    def test_placeholders_off(self):
        a = normalize_sql("SELECT a FROM t WHERE x = 1", literal_placeholders=False)
        b = normalize_sql("SELECT a FROM t WHERE x = 2", literal_placeholders=False)
        assert a != b

    def test_semicolon_and_comments_stripped(self):
        assert normalize_sql("SELECT a FROM t; -- done") == normalize_sql("SELECT a FROM t")

    def test_structurally_different_stay_apart(self):
        assert normalize_sql("SELECT a FROM t") != normalize_sql("SELECT b FROM t")

    def test_untokenizable_fallback(self):
        assert normalize_sql("SELECT 'oops") == "select 'oops"


class TestNormalizedForms:
    @given(sql_texts)
    @settings(max_examples=300, deadline=None)
    def test_forms_join_the_token_norms(self, sql):
        """The one-scan forms equal the forms spelled out over the token
        list, and fall back to normalize_text exactly when tokenize raises."""
        forms = normalized_forms(sql)
        if not tokenizes(sql):
            assert forms == (normalize_text(sql), normalize_text(sql))
        else:
            words = [
                tok for tok in tokenize(sql)
                if tok.kind != "end" and not (tok.kind == "op" and tok.text == ";")
            ]
            literal = " ".join(tok.text if tok.kind == "string" else tok.norm for tok in words)
            placeholders = {"number": ":num", "string": ":str"}
            placeholder = " ".join(placeholders.get(tok.kind, tok.norm) for tok in words)
            assert forms == (literal, placeholder)
        assert (normalize_sql(sql, False), normalize_sql(sql, True)) == forms
        assert query_id(sql, forms[0]) == query_id(sql)

    def test_demo_holds_untokenizable_candidates(self):
        assert not all(map(tokenizes, DEMO_SQL))
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT 'oops")


class TestRobustness:
    @given(st.text(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_never_crashes(self, text):
        try:
            parse_select(text)
        except SqlSyntaxError:
            pass  # the only acceptable failure mode

    @given(st.lists(st.sampled_from([
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "HAVING", "JOIN",
        "ON", "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE", "CASE", "WHEN",
        "THEN", "END", "UNION", "t", "a", "b", "1", "'x'", "(", ")", ",",
        "=", "<", "+", "*", ".", ";",
    ]), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_token_soup_never_crashes(self, tokens):
        try:
            parse_select(" ".join(tokens))
        except SqlSyntaxError:
            pass

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_normalize_total(self, text):
        normalize_sql(text)  # never raises


class TestWindowFunctions:
    def test_partition_and_order(self):
        expr = core(
            "SELECT RANK() OVER (PARTITION BY a ORDER BY b DESC) FROM t"
        ).items[0].expr
        assert expr.name == "rank"
        assert expr.over is not None
        assert expr.over.partition_by == [ColumnRef(None, "a")]
        assert expr.over.order_by[0].direction == "desc"

    def test_empty_over(self):
        expr = core("SELECT COUNT(*) OVER () FROM t").items[0].expr
        assert expr.star and expr.over is not None

    def test_frame_clause(self):
        expr = core(
            "SELECT SUM(x) OVER (ORDER BY d ROWS BETWEEN UNBOUNDED PRECEDING "
            "AND CURRENT ROW) FROM t"
        ).items[0].expr
        assert expr.over.frame == "rows between unbounded preceding and current row"

    def test_numeric_frame_bound(self):
        expr = core(
            "SELECT AVG(x) OVER (ORDER BY d ROWS 3 PRECEDING) FROM t"
        ).items[0].expr
        assert expr.over.frame == "rows 3 preceding"

    def test_over_as_plain_identifier_still_works(self):
        c = core("SELECT over FROM t")
        assert c.items[0].expr == ColumnRef(None, "over")

    def test_substring_from_for(self):
        expr = core("SELECT SUBSTRING(name FROM 1 FOR 3) FROM t").items[0].expr
        assert expr.name == "substring"
        assert len(expr.args) == 3

    def test_bad_frame_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_select("SELECT SUM(x) OVER (ROWS WOBBLY) FROM t")
