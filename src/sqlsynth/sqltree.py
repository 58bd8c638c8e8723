"""Tokenizer, syntax tree, and recursive-descent parser for SQL SELECT statements.

The grammar covers the query shapes this toolkit generates and consumes:
single SELECT cores with joins (explicit and comma-list), WHERE / GROUP BY /
HAVING / ORDER BY / LIMIT / OFFSET, set operators (UNION / INTERSECT / EXCEPT
with optional ALL), sub-selects in FROM and in expressions, WITH common table
expressions, CASE / CAST / EXISTS / IN / BETWEEN / LIKE / IS NULL, typed
literals (DATE '...', INTERVAL '...'), and quoted identifiers.

It is deliberately a validating parser: malformed statements raise
:class:`~sqlsynth.errors.SqlSyntaxError` with the offending position, which is
what the downstream syntax filter reports.

One scanner, :func:`_lex`, reads SQL text. Token objects exist only inside a
parse: :func:`parse_select` (and the DDL reader) tokenize the text they are
given and drop the list when they return. :func:`normalized_forms` scans a
candidate once for its two canonical forms, the literal form its record id
hashes and the placeholder form that is its dedup key, and builds no token.
A mechanical candidate is built as a tree, and one walk of the printer,
:func:`print_sql`, writes its SQL and prints its two forms, so it is never
scanned, tokenized or parsed. An LLM candidate is scanned once and parsed at
most once. :func:`print_sql` is this module's one writer of SQL surface
syntax (:func:`to_sql` and :func:`to_forms` are views of it); every name it
writes goes through :func:`sql_name`.

This module offers no generic tree walk. Besides the parser that builds a
tree and the printer :func:`print_sql`, the one walk over a tree is the
reference resolver,
:func:`~sqlsynth.validation.resolve_references`, which visits each node once
and counts the shape that coverage profiles and clause tags read.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from .errors import SqlSyntaxError

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<line_comment>--[^\n]*)
    | (?P<block_comment>/\*.*?\*/)
    | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
    | (?P<name>[A-Za-z_][A-Za-z_0-9$]*)
    | (?P<string>'(?:[^']|'')*')
    | (?P<qname>"(?:[^"]|"")*"|`[^`]*`)
    | (?P<op><=|>=|<>|!=|\|\||/(?!\*)|[=<>+\-*%(),.;])  # an unclosed /* is an error
    """,
    re.VERBOSE | re.DOTALL,
)

#: Words that terminate an implicit alias and may not be used unquoted as one.
RESERVED_WORDS = frozenset(
    """
    all and as asc between by case cast cross desc distinct else end escape
    except exists from full group having in inner intersect interval is join
    left like limit not null offset on or order outer right select then union
    using when where with
    """.split()
)

_CURRENT_FUNCS = frozenset({"current_date", "current_time", "current_timestamp"})
_INTERVAL_UNITS = frozenset(
    "year years quarter quarters month months week weeks day days "
    "hour hours minute minutes second seconds".split()
)


@dataclass
class Token:
    kind: str  # 'number' | 'name' | 'string' | 'qname' | 'op' | 'end'
    text: str
    pos: int

    @property
    def norm(self) -> str:
        """Lower-cased token text; quoted identifiers are unwrapped."""
        if self.kind == "qname":
            return _unquote(self.text)
        return self.text.lower()


def _unquote(qname: str) -> str:
    """The lower-cased name a quoted identifier token spells."""
    body = qname[1:-1]
    if qname[0] == '"':
        body = body.replace('""', '"')
    return body.lower()


def _syntax_error(message: str, sql: str, pos: int) -> SqlSyntaxError:
    line_start = sql.rfind("\n", 0, pos) + 1
    return SqlSyntaxError(message, pos, sql.count("\n", 0, pos) + 1, pos - line_start + 1)


_SKIPPED = frozenset({"ws", "line_comment", "block_comment"})


def _lex(sql: str):
    """Yield ``(kind, text, pos)`` for each token of ``sql``, skipping
    whitespace and comments; raise SqlSyntaxError where no token starts."""
    pos = 0
    for m in _TOKEN_RE.finditer(sql):
        if m.start() != pos:
            break
        kind = m.lastgroup
        if kind not in _SKIPPED:
            yield kind, m.group(), pos
        pos = m.end()
    if pos == len(sql):
        return
    if sql[pos] == "'":
        msg = "unterminated string literal"
    elif sql.startswith("/*", pos):
        msg = "unterminated block comment"
    else:
        msg = f"unexpected character {sql[pos]!r}"
    raise _syntax_error(msg, sql, pos)


def tokenize(sql: str) -> list[Token]:
    """Split ``sql`` into tokens, dropping whitespace and comments."""
    tokens = [Token(kind, text, pos) for kind, text, pos in _lex(sql)]
    tokens.append(Token("end", "", len(sql)))
    return tokens


# ---------------------------------------------------------------------------
# Syntax tree nodes
# ---------------------------------------------------------------------------


class Node:
    """Base class for all syntax tree nodes."""


@dataclass
class Literal(Node):
    kind: str  # 'number' | 'string' | 'null' | 'boolean' | 'date' | 'interval'
    text: str


@dataclass
class ColumnRef(Node):
    table: str | None
    name: str


@dataclass
class Star(Node):
    table: str | None = None


@dataclass
class Window(Node):
    """An OVER clause: partitioning, ordering, and an optional frame.

    The frame is kept as canonical text only; nothing downstream inspects
    frame bounds.
    """

    partition_by: list[Node] = field(default_factory=list)
    order_by: list["OrderItem"] = field(default_factory=list)
    frame: str | None = None


@dataclass
class FuncCall(Node):
    name: str
    args: list[Node] = field(default_factory=list)
    distinct: bool = False
    star: bool = False
    over: Window | None = None


@dataclass
class Unary(Node):
    op: str  # '-' | '+' | 'not'
    operand: Node


@dataclass
class Binary(Node):
    op: str  # comparison, arithmetic, 'and', 'or', '||'
    left: Node
    right: Node


@dataclass
class Between(Node):
    expr: Node
    low: Node
    high: Node
    negated: bool = False


@dataclass
class InList(Node):
    expr: Node
    items: list[Node] = field(default_factory=list)
    negated: bool = False


@dataclass
class InSubquery(Node):
    expr: Node
    query: "Query" = None
    negated: bool = False


@dataclass
class Like(Node):
    expr: Node
    pattern: Node
    negated: bool = False
    escape: Node | None = None


@dataclass
class IsNull(Node):
    expr: Node
    negated: bool = False


@dataclass
class Exists(Node):
    query: "Query"
    negated: bool = False


@dataclass
class Case(Node):
    operand: Node | None
    whens: list[tuple]  # (condition, result) pairs
    else_: Node | None


@dataclass
class Cast(Node):
    expr: Node
    type_name: str


@dataclass
class ScalarSubquery(Node):
    query: "Query"


@dataclass
class SelectItem(Node):
    expr: Node
    alias: str | None = None


@dataclass
class TableName(Node):
    name: str
    alias: str | None = None


@dataclass
class DerivedTable(Node):
    query: "Query"
    alias: str


@dataclass
class Join(Node):
    left: Node
    right: Node
    kind: str  # 'inner' | 'left' | 'right' | 'full' | 'cross'
    condition: Node | None = None
    using: list[str] = field(default_factory=list)


@dataclass
class SelectCore(Node):
    distinct: bool
    items: list[SelectItem]
    from_refs: list[Node]
    where: Node | None
    group_by: list[Node]
    having: Node | None


@dataclass
class SetOp(Node):
    op: str  # 'union' | 'intersect' | 'except'
    all: bool
    left: Node
    right: Node


@dataclass
class OrderItem(Node):
    expr: Node
    direction: str | None = None  # 'asc' | 'desc'


@dataclass
class Cte(Node):
    name: str
    columns: list[str]
    query: "Query" = None


@dataclass
class Query(Node):
    ctes: list[Cte]
    body: Node  # SelectCore | SetOp
    order_by: list[OrderItem]
    limit: Node | None = None
    offset: Node | None = None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

#: also the operators the resolver counts as comparisons
_COMPARISON_OPS = frozenset({"=", "<>", "!=", "<", "<=", ">", ">="})
_JOIN_INTRO = frozenset({"join", "inner", "left", "right", "full", "cross"})


class TokenCursor:
    """Cursor over the tokens of ``sql``, shared by the SELECT parser and the
    DDL reader; ``error`` raises the reader's own syntax error."""

    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def error(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        shown = tok.text if tok.kind != "end" else "end of input"
        raise _syntax_error(f"{message} (got {shown!r})", self.sql, tok.pos)

    def at_kw(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "name" and tok.norm in words

    def take_kw(self, *words: str) -> bool:
        if self.at_kw(*words):
            self.next()
            return True
        return False

    def expect_kw(self, word: str):
        if not self.take_kw(word):
            self.error(f"expected {word.upper()}")

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def take_op(self, *ops: str) -> bool:
        if self.at_op(*ops):
            self.next()
            return True
        return False

    def expect_op(self, op: str):
        if not self.take_op(op):
            self.error(f"expected {op!r}")

    def expect_name(self, what: str = "identifier") -> str:
        tok = self.peek()
        if tok.kind == "qname" or (tok.kind == "name" and tok.norm not in RESERVED_WORDS):
            self.next()
            return tok.norm
        self.error(f"expected {what}")


class _Parser(TokenCursor):
    # -- entry points -------------------------------------------------------

    def parse_statement(self) -> Query:
        query = self.parse_query()
        self.take_op(";")
        if self.peek().kind != "end":
            self.error("unexpected trailing input")
        return query

    def parse_query(self) -> Query:
        ctes: list[Cte] = []
        if self.take_kw("with"):
            if self.at_kw("recursive"):
                self.next()
            ctes.append(self._parse_cte())
            while self.take_op(","):
                ctes.append(self._parse_cte())
        body = self._parse_body()
        order_by: list[OrderItem] = []
        limit = offset = None
        if self.take_kw("order"):
            self.expect_kw("by")
            order_by.append(self._parse_order_item())
            while self.take_op(","):
                order_by.append(self._parse_order_item())
        if self.take_kw("limit"):
            limit = self.parse_expr()
            if self.take_op(","):
                # MySQL-style LIMIT offset, count
                offset = limit
                limit = self.parse_expr()
            elif self.take_kw("offset"):
                offset = self.parse_expr()
        return Query(ctes=ctes, body=body, order_by=order_by, limit=limit, offset=offset)

    def _parse_cte(self) -> Cte:
        name = self.expect_name("CTE name")
        columns: list[str] = []
        if self.take_op("("):
            columns.append(self.expect_name("column name"))
            while self.take_op(","):
                columns.append(self.expect_name("column name"))
            self.expect_op(")")
        self.expect_kw("as")
        self.expect_op("(")
        query = self.parse_query()
        self.expect_op(")")
        return Cte(name=name, columns=columns, query=query)

    # set operations: INTERSECT binds tighter than UNION / EXCEPT
    def _parse_body(self) -> Node:
        left = self._parse_body_term()
        while self.at_kw("union", "except"):
            op = self.next().norm
            all_flag = bool(self.take_kw("all"))
            self.take_kw("distinct")
            right = self._parse_body_term()
            left = SetOp(op=op, all=all_flag, left=left, right=right)
        return left

    def _parse_body_term(self) -> Node:
        left = self._parse_body_factor()
        while self.at_kw("intersect"):
            self.next()
            all_flag = bool(self.take_kw("all"))
            right = self._parse_body_factor()
            left = SetOp(op="intersect", all=all_flag, left=left, right=right)
        return left

    def _parse_body_factor(self) -> Node:
        if self.at_op("(") and self.peek(1).kind == "name" and self.peek(1).norm in ("select", "with"):
            self.next()
            inner = self.parse_query()
            self.expect_op(")")
            # A parenthesized query used as a set-operation operand; inner
            # ORDER BY / LIMIT are legal there, so keep the Query node.
            return inner
        return self._parse_select_core()

    def _parse_select_core(self) -> SelectCore:
        self.expect_kw("select")
        distinct = bool(self.take_kw("distinct"))
        if not distinct:
            self.take_kw("all")
        items = [self._parse_select_item()]
        while self.take_op(","):
            items.append(self._parse_select_item())
        from_refs: list[Node] = []
        where = having = None
        group_by: list[Node] = []
        if self.take_kw("from"):
            from_refs.append(self._parse_table_ref())
            while self.take_op(","):
                from_refs.append(self._parse_table_ref())
        if self.take_kw("where"):
            where = self.parse_expr()
        if self.take_kw("group"):
            self.expect_kw("by")
            group_by.append(self.parse_expr())
            while self.take_op(","):
                group_by.append(self.parse_expr())
        if self.take_kw("having"):
            having = self.parse_expr()
        return SelectCore(
            distinct=distinct,
            items=items,
            from_refs=from_refs,
            where=where,
            group_by=group_by,
            having=having,
        )

    def _parse_select_item(self) -> SelectItem:
        if self.at_op("*"):
            self.next()
            return SelectItem(expr=Star(), alias=None)
        expr = self.parse_expr()
        alias = self._parse_alias()
        return SelectItem(expr=expr, alias=alias)

    def _parse_alias(self) -> str | None:
        if self.take_kw("as"):
            return self.expect_name("alias")
        tok = self.peek()
        if tok.kind == "qname" or (tok.kind == "name" and tok.norm not in RESERVED_WORDS):
            self.next()
            return tok.norm
        return None

    # -- FROM clause --------------------------------------------------------

    def _parse_table_ref(self) -> Node:
        ref = self._parse_table_primary()
        while True:
            kind = self._peek_join_kind()
            if kind is None:
                return ref
            right = self._parse_table_primary()
            condition = None
            using: list[str] = []
            if kind != "cross":
                if self.take_kw("on"):
                    condition = self.parse_expr()
                elif self.take_kw("using"):
                    self.expect_op("(")
                    using.append(self.expect_name("column name"))
                    while self.take_op(","):
                        using.append(self.expect_name("column name"))
                    self.expect_op(")")
                else:
                    self.error("expected ON or USING after JOIN")
            ref = Join(left=ref, right=right, kind=kind, condition=condition, using=using)

    def _peek_join_kind(self) -> str | None:
        if self.at_kw("join"):
            self.next()
            return "inner"
        if self.at_kw("inner"):
            self.next()
            self.expect_kw("join")
            return "inner"
        for kind in ("left", "right", "full"):
            if self.at_kw(kind):
                self.next()
                self.take_kw("outer")
                self.expect_kw("join")
                return kind
        if self.at_kw("cross"):
            self.next()
            self.expect_kw("join")
            return "cross"
        return None

    def _parse_table_primary(self) -> Node:
        if self.take_op("("):
            if not self.at_kw("select", "with"):
                self.error("expected a sub-select inside parentheses in FROM")
            query = self.parse_query()
            self.expect_op(")")
            alias = self._parse_alias()
            if alias is None:
                self.error("a sub-select in FROM requires an alias")
            return DerivedTable(query=query, alias=alias)
        name = self.expect_name("table name")
        while self.take_op("."):
            name = f"{name}.{self.expect_name('table name')}"
        alias = self._parse_alias()
        return TableName(name=name, alias=alias)

    def _parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        direction = None
        if self.take_kw("asc"):
            direction = "asc"
        elif self.take_kw("desc"):
            direction = "desc"
        if self.take_kw("nulls"):
            if not (self.take_kw("first") or self.take_kw("last")):
                self.error("expected FIRST or LAST after NULLS")
        return OrderItem(expr=expr, direction=direction)

    # -- expressions --------------------------------------------------------

    def parse_expr(self) -> Node:
        return self._parse_or()

    def _parse_or(self) -> Node:
        left = self._parse_and()
        while self.at_kw("or"):
            self.next()
            left = Binary(op="or", left=left, right=self._parse_and())
        return left

    def _parse_and(self) -> Node:
        left = self._parse_not()
        while self.at_kw("and"):
            self.next()
            left = Binary(op="and", left=left, right=self._parse_not())
        return left

    def _parse_not(self) -> Node:
        if self.at_kw("not"):
            self.next()
            return Unary(op="not", operand=self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Node:
        left = self._parse_additive()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in _COMPARISON_OPS:
                self.next()
                left = Binary(op=tok.text, left=left, right=self._parse_additive())
                continue
            negated = False
            if self.at_kw("not") and self.peek(1).kind == "name" and self.peek(1).norm in (
                "in",
                "between",
                "like",
            ):
                self.next()
                negated = True
            if self.take_kw("in"):
                left = self._parse_in(left, negated)
                continue
            if self.take_kw("between"):
                low = self._parse_additive()
                self.expect_kw("and")
                high = self._parse_additive()
                left = Between(expr=left, low=low, high=high, negated=negated)
                continue
            if self.take_kw("like"):
                pattern = self._parse_additive()
                escape = None
                if self.take_kw("escape"):
                    escape = self._parse_additive()
                left = Like(expr=left, pattern=pattern, negated=negated, escape=escape)
                continue
            if negated:
                self.error("expected IN, BETWEEN, or LIKE after NOT")
            if self.at_kw("is"):
                self.next()
                neg = bool(self.take_kw("not"))
                self.expect_kw("null")
                left = IsNull(expr=left, negated=neg)
                continue
            return left

    def _parse_in(self, left: Node, negated: bool) -> Node:
        self.expect_op("(")
        if self.at_kw("select", "with"):
            query = self.parse_query()
            self.expect_op(")")
            return InSubquery(expr=left, query=query, negated=negated)
        items = [self.parse_expr()]
        while self.take_op(","):
            items.append(self.parse_expr())
        self.expect_op(")")
        return InList(expr=left, items=items, negated=negated)

    def _parse_additive(self) -> Node:
        left = self._parse_multiplicative()
        while True:
            if self.at_op("+", "-", "||"):
                op = self.next().text
                left = Binary(op=op, left=left, right=self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Node:
        left = self._parse_unary()
        while True:
            if self.at_op("*", "/", "%"):
                op = self.next().text
                left = Binary(op=op, left=left, right=self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Node:
        if self.at_op("-", "+"):
            op = self.next().text
            return Unary(op=op, operand=self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Node:
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            return Literal(kind="number", text=tok.text)
        if tok.kind == "string":
            self.next()
            return Literal(kind="string", text=tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.next()
            if self.at_kw("select", "with"):
                query = self.parse_query()
                self.expect_op(")")
                return ScalarSubquery(query=query)
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        if tok.kind in ("name", "qname"):
            word = tok.norm
            if tok.kind == "name":
                if word == "null":
                    self.next()
                    return Literal(kind="null", text=tok.text)
                if word in ("true", "false"):
                    self.next()
                    return Literal(kind="boolean", text=tok.text)
                if word in ("date", "time", "timestamp") and self.peek(1).kind == "string":
                    self.next()
                    value = self.next()
                    return Literal(kind="date", text=f"{word} {value.text}")
                if word == "interval" and self.peek(1).kind in ("string", "number"):
                    self.next()
                    value = self.next()
                    text = f"interval {value.text}"
                    unit = self.peek()
                    if unit.kind == "name" and unit.norm in _INTERVAL_UNITS:
                        self.next()
                        text = f"{text} {unit.norm}"
                    return Literal(kind="interval", text=text)
                if word == "case":
                    return self._parse_case()
                if word == "cast":
                    return self._parse_cast()
                if word == "exists":
                    self.next()
                    self.expect_op("(")
                    query = self.parse_query()
                    self.expect_op(")")
                    return Exists(query=query)
                if word in RESERVED_WORDS:
                    self.error("unexpected keyword")
                if word in _CURRENT_FUNCS and not (
                    self.peek(1).kind == "op" and self.peek(1).text == "("
                ):
                    self.next()
                    return FuncCall(name=word)
            self.next()
            if self.at_op("("):
                return self._parse_call(word)
            if self.at_op(".") and self.peek(1).kind != "end":
                self.next()
                nxt = self.peek()
                if nxt.kind == "op" and nxt.text == "*":
                    self.next()
                    return Star(table=word)
                column = self.expect_name("column name")
                return ColumnRef(table=word, name=column)
            return ColumnRef(table=None, name=word)
        self.error("expected an expression")

    def _parse_call(self, name: str) -> Node:
        self.expect_op("(")
        if self.take_op(")"):
            return self._maybe_over(FuncCall(name=name))
        if self.at_op("*"):
            self.next()
            self.expect_op(")")
            return self._maybe_over(FuncCall(name=name, star=True))
        distinct = bool(self.take_kw("distinct"))
        args = [self.parse_expr()]
        if name == "extract" and self.take_kw("from"):
            # EXTRACT(unit FROM expr): keep only the source expression.
            args = [self.parse_expr()]
        elif name == "substring" and self.take_kw("from"):
            # SUBSTRING(s FROM start [FOR length]) standard form
            args.append(self.parse_expr())
            if self.take_kw("for"):
                args.append(self.parse_expr())
        else:
            while self.take_op(","):
                args.append(self.parse_expr())
        self.expect_op(")")
        return self._maybe_over(FuncCall(name=name, args=args, distinct=distinct))

    def _maybe_over(self, call: FuncCall) -> FuncCall:
        # OVER is not reserved; it introduces a window only before "("
        if not (self.at_kw("over") and self.peek(1).kind == "op" and self.peek(1).text == "("):
            return call
        self.next()
        self.expect_op("(")
        window = Window()
        if self.take_kw("partition"):
            self.expect_kw("by")
            window.partition_by.append(self.parse_expr())
            while self.take_op(","):
                window.partition_by.append(self.parse_expr())
        if self.take_kw("order"):
            self.expect_kw("by")
            window.order_by.append(self._parse_order_item())
            while self.take_op(","):
                window.order_by.append(self._parse_order_item())
        if self.at_kw("rows", "range", "groups"):
            window.frame = self._parse_frame()
        self.expect_op(")")
        call.over = window
        return call

    def _parse_frame(self) -> str:
        parts = [self.next().norm]  # rows | range | groups
        if self.take_kw("between"):
            parts.append("between")
            parts.extend(self._parse_frame_bound())
            self.expect_kw("and")
            parts.append("and")
            parts.extend(self._parse_frame_bound())
        else:
            parts.extend(self._parse_frame_bound())
        return " ".join(parts)

    def _parse_frame_bound(self) -> list[str]:
        if self.take_kw("unbounded"):
            if self.take_kw("preceding") or self.take_kw("following"):
                return ["unbounded", self.tokens[self.i - 1].norm]
            self.error("expected PRECEDING or FOLLOWING after UNBOUNDED")
        if self.take_kw("current"):
            self.expect_kw("row")
            return ["current row"]
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            if self.take_kw("preceding") or self.take_kw("following"):
                return [tok.text, self.tokens[self.i - 1].norm]
        self.error("expected a window frame bound")

    def _parse_case(self) -> Node:
        self.expect_kw("case")
        operand = None
        if not self.at_kw("when"):
            operand = self.parse_expr()
        whens: list[tuple] = []
        while self.take_kw("when"):
            condition = self.parse_expr()
            self.expect_kw("then")
            whens.append((condition, self.parse_expr()))
        if not whens:
            self.error("CASE requires at least one WHEN branch")
        else_ = None
        if self.take_kw("else"):
            else_ = self.parse_expr()
        self.expect_kw("end")
        return Case(operand=operand, whens=whens, else_=else_)

    def _parse_cast(self) -> Node:
        self.expect_kw("cast")
        self.expect_op("(")
        expr = self.parse_expr()
        self.expect_kw("as")
        type_name = self.expect_name("type name")
        while self.peek().kind == "name" and self.peek().norm not in RESERVED_WORDS:
            type_name = f"{type_name} {self.next().norm}"
        if self.take_op("("):
            parts = []
            while not self.at_op(")"):
                parts.append(self.next().text)
                if self.take_op(","):
                    parts.append(",")
            self.expect_op(")")
            type_name = f"{type_name}({''.join(parts)})"
        self.expect_op(")")
        return Cast(expr=expr, type_name=type_name)


def parse_select(sql: str) -> Query:
    """Parse one SELECT (or WITH ... SELECT) statement into a syntax tree.

    Raises :class:`~sqlsynth.errors.SqlSyntaxError` on malformed input,
    including trailing garbage after the statement.
    """
    parser = _Parser(sql)
    first = parser.peek()
    if not (first.kind == "name" and first.norm in ("select", "with")):
        parser.error("expected SELECT or WITH")
    return parser.parse_statement()


# ---------------------------------------------------------------------------
# Printer: SQL text from the nodes a generator builds
# ---------------------------------------------------------------------------

#: Words the parser reads as something other than a name before "." or in FROM.
_NOT_BARE = RESERVED_WORDS | _CURRENT_FUNCS | {"true", "false"}


def _one_token(text: str) -> str | None:
    """The kind of the one token ``text`` is, or None if it is not one token."""
    m = _TOKEN_RE.match(text)
    return m.lastgroup if m is not None and m.end() == len(text) else None


def bare_name(name: str) -> bool:
    """Whether ``name``, written unquoted, parses back as ``name.lower()``
    both as a table name in FROM and as either part of ``table.column``."""
    return _one_token(name) == "name" and name.lower() not in _NOT_BARE


@functools.cache
def sql_name(name: str) -> str:
    """``name`` as SQL text: itself when :func:`bare_name` holds, double-quoted
    otherwise, so it reads back as ``name.lower()`` either way."""
    return name if bare_name(name) else '"' + name.replace('"', '""') + '"'


def literal_node(text: str) -> Node | None:
    """The node the parser makes of ``text`` as an operand, when ``text`` is
    a number (optionally after a minus sign), a string, TRUE or FALSE; None
    for any other text."""
    negative = text.startswith("-")
    body = text[1:] if negative else text
    kind = _one_token(body)
    if kind == "number":
        node = Literal(kind="number", text=body)
        return Unary(op="-", operand=node) if negative else node
    if negative:
        return None
    if kind == "string":
        return Literal(kind="string", text=text)
    if kind == "name" and text.lower() in ("true", "false"):
        return Literal(kind="boolean", text=text)
    return None


def to_sql(node: Node) -> str:
    """SQL text that :func:`parse_select` reads back as ``node``: the text
    :func:`print_sql` prints."""
    return print_sql(node)[0]


def to_forms(node: Node) -> tuple[str, str]:
    """The two :func:`normalized_forms` of ``to_sql(node)``, the literal
    form and the placeholder form: the forms :func:`print_sql` prints."""
    return print_sql(node)[1:]


def print_sql(node: Node) -> tuple[str, str, str]:
    """``node`` printed in one walk: SQL text that :func:`parse_select` reads
    back as ``node``, then the two :func:`normalized_forms` of that text,
    the literal form and the placeholder form, printed without scanning it.
    For the node kinds the mechanical generator builds and the fields it
    sets.

    In the text, keywords and function names are upper case, names go
    through :func:`sql_name` and literals are written as their text. AND
    and OR get no parentheses: the tree must nest them as the parser does
    (left-deep, OR over runs of AND). The forms hold each token as the word
    the scan would make of it: keywords, operators and function names lower
    case, tokens one space apart. A name's word is ``name.lower()``: what
    the scan makes of ``sql_name(name)``, bare or double-quoted alike (see
    :func:`_unquote`). Number, string, TRUE/FALSE and NULL literals are
    printed; any other node kind, or literal kind, raises TypeError.
    """
    kind = type(node)
    if kind is ColumnRef:
        form = f"{node.table.lower()} . {node.name.lower()}"
        return f"{sql_name(node.table)}.{sql_name(node.name)}", form, form
    if kind is Literal:
        text = node.text
        if node.kind == "number":
            return text, text.lower(), ":num"
        if node.kind == "string":
            return text, text, ":str"
        if node.kind in ("boolean", "null"):
            word = text.lower()
            return text, word, word
        raise TypeError(f"print_sql does not print {node.kind} literals")
    if kind is Binary:
        left, right = print_sql(node.left), print_sql(node.right)
        op = node.op.lower()
        return (
            f"{left[0]} {op.upper()} {right[0]}",
            f"{left[1]} {op} {right[1]}",
            f"{left[2]} {op} {right[2]}",
        )
    if kind is FuncCall:
        name = node.name.lower()
        args = ("*", "*", "*") if node.star else _print_list(node.args)
        return (
            f"{name.upper()}({args[0]})",
            f"{name} ( {args[1]} )",
            f"{name} ( {args[2]} )",
        )
    if kind is Between:
        expr, low, high = print_sql(node.expr), print_sql(node.low), print_sql(node.high)
        return (
            f"{expr[0]} BETWEEN {low[0]} AND {high[0]}",
            f"{expr[1]} between {low[1]} and {high[1]}",
            f"{expr[2]} between {low[2]} and {high[2]}",
        )
    if kind is InList:
        expr, items = print_sql(node.expr), _print_list(node.items)
        return (
            f"{expr[0]} IN ({items[0]})",
            f"{expr[1]} in ( {items[1]} )",
            f"{expr[2]} in ( {items[2]} )",
        )
    if kind is Like:
        expr, pattern = print_sql(node.expr), print_sql(node.pattern)
        return (
            f"{expr[0]} LIKE {pattern[0]}",
            f"{expr[1]} like {pattern[1]}",
            f"{expr[2]} like {pattern[2]}",
        )
    if kind is IsNull:
        sql, literal, placeholder = print_sql(node.expr)
        test = "not null" if node.negated else "null"
        return f"{sql} IS {test.upper()}", f"{literal} is {test}", f"{placeholder} is {test}"
    if kind is Unary and node.op == "-":
        sql, literal, placeholder = print_sql(node.operand)
        return f"-{sql}", f"- {literal}", f"- {placeholder}"
    if kind is TableName:
        word = node.name.lower()
        return sql_name(node.name), word, word
    if kind is Join and node.kind == "inner":
        left, right, on = print_sql(node.left), print_sql(node.right), print_sql(node.condition)
        return (
            f"{left[0]} INNER JOIN {right[0]} ON {on[0]}",
            f"{left[1]} inner join {right[1]} on {on[1]}",
            f"{left[2]} inner join {right[2]} on {on[2]}",
        )
    if kind is Query and type(node.body) is SelectCore:
        core = node.body
        clauses = [
            ("select", _print_list([item.expr for item in core.items])),
            ("from", _print_list(core.from_refs)),
        ]
        if core.where is not None:
            clauses.append(("where", print_sql(core.where)))
        if core.group_by:
            clauses.append(("group by", _print_list(core.group_by)))
        if core.having is not None:
            clauses.append(("having", print_sql(core.having)))
        if node.order_by:
            terms = []
            for item in node.order_by:
                sql, literal, placeholder = print_sql(item.expr)
                if item.direction == "desc":
                    sql += " DESC"
                    literal += " desc"
                    placeholder += " desc"
                terms.append((sql, literal, placeholder))
            clauses.append(("order by", _joined(terms)))
        return (
            " ".join([f"{keyword.upper()} {printed[0]}" for keyword, printed in clauses]),
            " ".join([f"{keyword} {printed[1]}" for keyword, printed in clauses]),
            " ".join([f"{keyword} {printed[2]}" for keyword, printed in clauses]),
        )
    raise TypeError(f"print_sql does not print {kind.__name__} nodes")


def _print_list(nodes) -> tuple[str, str, str]:
    """``nodes`` printed by :func:`print_sql` as a comma-separated list."""
    return _joined([print_sql(node) for node in nodes])


def _joined(printed) -> tuple[str, str, str]:
    """Printed nodes, (text, literal form, placeholder form) each, joined
    as a comma-separated list."""
    sqls, literals, placeholders = zip(*printed) if printed else ((), (), ())
    return ", ".join(sqls), " , ".join(literals), " , ".join(placeholders)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def normalize_sql(sql: str, literal_placeholders: bool = True) -> str:
    """Canonical single-line form of ``sql`` used for deduplication: one of
    its :func:`normalized_forms`."""
    literal, placeholder = normalized_forms(sql)
    return placeholder if literal_placeholders else literal


def normalized_forms(sql: str) -> tuple[str, str]:
    """The two canonical single-line forms of ``sql``, from one scan: with
    literals kept (record ids) and with literals as placeholders (dedup keys).

    Keywords and identifiers are lower-cased (quoted identifiers unwrapped),
    whitespace and comments collapse to single spaces and semicolons go. In
    the placeholder form, number and string literals become typed
    placeholders, so queries differing only in constants coincide. Text that
    cannot be tokenized at all has :func:`normalize_text` as both forms (still
    usable as a dedup key for rejected candidates).
    """
    literal: list[str] = []
    placeholder: list[str] = []
    try:
        for kind, text, _ in _lex(sql):
            if kind == "string":
                literal.append(text)
                placeholder.append(":str")
            elif kind == "number":
                literal.append(text.lower())
                placeholder.append(":num")
            elif text != ";":
                word = _unquote(text) if kind == "qname" else text.lower()
                literal.append(word)
                placeholder.append(word)
    except SqlSyntaxError:
        text = normalize_text(sql)
        return text, text
    return " ".join(literal), " ".join(placeholder)


def normalize_text(sql: str) -> str:
    """The normalized form of text that cannot be tokenized: lower-cased,
    whitespace collapsed."""
    return " ".join(sql.lower().split())
