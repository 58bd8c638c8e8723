"""Candidate-query validation: syntax, schema relevance, and deduplication.

Relevance checking resolves every table and column reference against the
catalog through proper scopes (aliases, derived tables, CTEs, correlated
sub-selects) and enforces the metadata rules: no arithmetic on label
columns, enumerated columns filtered only with their known literals, and,
when a subschema is given, no references outside its tables.

The resolver is the library's one walk over a syntax tree (apart from the
parser that builds it and :func:`~sqlsynth.sqltree.print_sql` that prints it).
It visits every node once and, as it goes, counts the query's shape:
SELECT cores, joins, clauses, operators and function calls. So one
:class:`ResolvedReferences` holds the relevance codes, the reference
multisets and the counts that the coverage profile
(:func:`~sqlsynth.coverage.profile_tree`) and the clause tags
(:func:`~sqlsynth.mechgen.clause_tags`) read, and generation, validation
and coverage all agree on what "resolves" means.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .schema import ColumnDef, SchemaCatalog, TableDef
from .sqltree import (
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
    Node,
    Query,
    ScalarSubquery,
    SelectCore,
    SetOp,
    Star,
    TableName,
    Unary,
    _COMPARISON_OPS,
    normalized_forms,
    parse_select,
)
from .util import stable_hash_hex

REJECT_SYNTAX = "syntax"
REJECT_UNKNOWN_OBJECT = "unknown_object"
REJECT_LABEL_ARITHMETIC = "label_arithmetic"
REJECT_ENUM_LITERAL = "enum_literal_violation"
REJECT_DUPLICATE = "duplicate"
REJECT_WRONG_TABLES = "uses_wrong_tables"

_ARITHMETIC_OPS = frozenset({"+", "-", "*", "/", "%"})


@dataclass
class ValidationReport:
    """Why a candidate was rejected, if it was, and its dedup key."""

    rejection_reasons: list[str] = field(default_factory=list)
    normalized_form: str = ""

    @property
    def accepted(self) -> bool:
        return not self.rejection_reasons


def query_id(sql: str, literal_form: str | None = None) -> str:
    """Stable id: hash of the literal-preserving normalized form of ``sql``
    (the first of its :func:`~sqlsynth.sqltree.normalized_forms`), which the
    caller passes as ``literal_form`` when it holds it."""
    if literal_form is None:
        literal_form = normalized_forms(sql)[0]
    return stable_hash_hex(literal_form, length=16)


def validate_syntax(sql: str) -> Query:
    """Parse ``sql`` into a syntax tree; raises SqlSyntaxError with position."""
    return parse_select(sql)


@dataclass
class ResolvedReferences:
    """Outcome of resolving a query against a catalog, and the query's
    shape as counted on the way (whether or not it resolved)."""

    tables: Counter = field(default_factory=Counter)  # base-table FROM occurrences
    columns: Counter = field(default_factory=Counter)  # "table.column" occurrences
    codes: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    joins: int = 0  # explicit JOINs
    comma_joins: int = 0  # k-1 for each FROM list of k relations
    # "select" (SELECT cores), "where", "group_by", "having" per core;
    # "order_by", "limit" per query expression
    clauses: Counter = field(default_factory=Counter)
    # "and", "or", "not", "comparison" (all comparison operators), "in",
    # "between", "like"
    operators: Counter = field(default_factory=Counter)
    functions: Counter = field(default_factory=Counter)  # calls by lower-cased name

    def add_code(self, code: str, note: str):
        if code not in self.codes:
            self.codes.append(code)
        self.notes.append(note)

    def add_counts(self, other: ResolvedReferences):
        """Add ``other``'s shape counts (not its references or codes)."""
        self.joins += other.joins
        self.comma_joins += other.comma_joins
        self.clauses.update(other.clauses)
        self.operators.update(other.operators)
        self.functions.update(other.functions)


class _Relation:
    """One FROM-clause binding: a base table, CTE, or derived table."""

    __slots__ = ("binding", "table", "columns")

    def __init__(self, binding: str, table: TableDef | None, columns: set[str] | None):
        self.binding = binding
        self.table = table
        self.columns = columns  # known output columns; None means opaque

    def owns(self, column: str) -> bool | None:
        """True/False ownership, or None when undecidable (opaque relation)."""
        if self.table is not None:
            return self.table.column(column) is not None
        if self.columns is None:
            return None
        return column in self.columns


class _Scope:
    __slots__ = ("relations", "ctes", "parent")

    def __init__(self, parent: "_Scope | None" = None):
        self.relations: list[_Relation] = []  # FROM bindings: columns in scope
        self.ctes: dict[str, _Relation] = {}  # named queries: FROM-able only
        self.parent = parent

    def find_binding(self, name: str) -> "_Relation | None":
        scope = self
        while scope is not None:
            for rel in scope.relations:
                if rel.binding == name:
                    return rel
            scope = scope.parent
        return None

    def find_cte(self, name: str) -> "_Relation | None":
        scope = self
        while scope is not None:
            if name in scope.ctes:
                return scope.ctes[name]
            scope = scope.parent
        return None


def resolve_references(tree: Query, catalog: SchemaCatalog) -> ResolvedReferences:
    """Resolve every reference in ``tree``; collect codes and multisets."""
    refs = ResolvedReferences()
    _resolve_query(tree, catalog, refs, None)
    return refs


def validate_relevance(
    tree: Query,
    catalog: SchemaCatalog,
    subschema=None,
    require_exact_tables: bool = False,
) -> list[str]:
    """Relevance codes for a parsed query; empty list means accepted.

    Checks: (a) all tables/columns resolve (aliases included); (b) no
    arithmetic touches a label column; (c) equality/IN filters on enumerated
    columns use only the known literals; (d) with a subschema, referenced
    tables stay within (or exactly equal, per flag) its table set.
    """
    return relevance_codes(resolve_references(tree, catalog), subschema, require_exact_tables)


def relevance_codes(refs: ResolvedReferences, subschema, require_exact_tables: bool) -> list[str]:
    """Relevance codes from already-resolved ``refs``, adding rule (d) of
    :func:`validate_relevance`; callers that keep ``refs`` for profiling
    resolve once and call this instead."""
    if subschema is not None:
        allowed = {t.lower() for t in subschema.tables}
        used = set(refs.tables)
        if require_exact_tables:
            if used != allowed:
                refs.add_code(
                    REJECT_WRONG_TABLES,
                    f"tables used {sorted(used)} != subschema {sorted(allowed)}",
                )
        elif not used <= allowed:
            refs.add_code(
                REJECT_WRONG_TABLES,
                f"tables outside subschema: {sorted(used - allowed)}",
            )
    return sorted(refs.codes)


# ---------------------------------------------------------------------------
# Resolution walk
# ---------------------------------------------------------------------------


def _resolve_query(
    query: Query, catalog: SchemaCatalog, refs: ResolvedReferences, outer: _Scope | None
) -> list[str] | None:
    """Resolve one query; returns its output column names (None if opaque)."""
    cte_scope = _Scope(outer)
    for cte in query.ctes:
        out_cols = _resolve_query(cte.query, catalog, refs, cte_scope)
        known = set(cte.columns) if cte.columns else (set(out_cols) if out_cols else None)
        cte_scope.ctes[cte.name] = _Relation(cte.name, None, known)

    if isinstance(query.body, SelectCore):
        frame, output, aliases = _resolve_core(query.body, catalog, refs, cte_scope)
        for item in query.order_by:
            _resolve_expr(item.expr, catalog, refs, frame, aliases)
    else:
        output = _resolve_setop(query.body, catalog, refs, cte_scope)
        known = set(output) if output else set()
        for item in query.order_by:
            # Set-operation ORDER BY addresses output columns by name or
            # position; anything fancier is tolerated rather than resolved,
            # though its nodes are counted.
            expr = item.expr
            if isinstance(expr, ColumnRef):
                if expr.table is None and output is not None and expr.name not in known:
                    refs.add_code(
                        REJECT_UNKNOWN_OBJECT,
                        f"ORDER BY column {expr.name!r} not in set-operation output",
                    )
            else:
                scratch = ResolvedReferences()
                _resolve_expr(expr, catalog, scratch, cte_scope, known)
                refs.add_counts(scratch)
    if query.order_by:
        refs.clauses["order_by"] += 1
    if query.limit is not None:
        refs.clauses["limit"] += 1
        _resolve_expr(query.limit, catalog, refs, cte_scope, frozenset())
    if query.offset is not None:
        _resolve_expr(query.offset, catalog, refs, cte_scope, frozenset())
    return output


def _resolve_setop(body: Node, catalog, refs, scope: _Scope) -> list[str] | None:
    sides = []
    for side in (body.left, body.right):
        if isinstance(side, SetOp):
            sides.append(_resolve_setop(side, catalog, refs, scope))
        elif isinstance(side, Query):
            sides.append(_resolve_query(side, catalog, refs, scope))
        else:
            frame, output, _ = _resolve_core(side, catalog, refs, scope)
            sides.append(output)
    return sides[0]


def _resolve_core(
    core: SelectCore, catalog, refs, outer: _Scope
) -> tuple[_Scope, list[str] | None, set[str]]:
    frame = _Scope(outer)
    refs.clauses["select"] += 1
    if len(core.from_refs) > 1:
        refs.comma_joins += len(core.from_refs) - 1
    pending_conditions: list[Node] = []
    for ref in core.from_refs:
        _bind_table_ref(ref, catalog, refs, frame, pending_conditions)
    for condition in pending_conditions:
        _resolve_expr(condition, catalog, refs, frame, frozenset())

    aliases: set[str] = set()
    output: list[str] | None = []
    for item in core.items:
        expr = item.expr
        if isinstance(expr, Star):
            _record_star(expr, catalog, refs, frame)
            expanded = _expand_star(expr, frame)
            if output is not None:
                output = output + expanded if expanded is not None else None
            continue
        _resolve_expr(expr, catalog, refs, frame, frozenset())
        if item.alias:
            aliases.add(item.alias)
            if output is not None:
                output.append(item.alias)
        elif isinstance(expr, ColumnRef):
            if output is not None:
                output.append(expr.name)
        else:
            output = None  # unnamed computed column: output shape opaque
    if core.where is not None:
        refs.clauses["where"] += 1
        _resolve_expr(core.where, catalog, refs, frame, frozenset())
    if core.group_by:
        refs.clauses["group_by"] += 1
        for expr in core.group_by:
            _resolve_expr(expr, catalog, refs, frame, aliases)
    if core.having is not None:
        refs.clauses["having"] += 1
        _resolve_expr(core.having, catalog, refs, frame, aliases)
    return frame, output, aliases


def _bind_table_ref(ref: Node, catalog, refs, frame: _Scope, pending: list):
    if isinstance(ref, TableName):
        binding = ref.alias or ref.name
        cte = frame.find_cte(ref.name)
        if cte is not None:
            # CTEs shadow base tables and are not catalog references.
            _add_binding(frame, _Relation(binding, None, cte.columns), refs)
            return
        table = catalog.table(ref.name)
        if table is None:
            refs.add_code(REJECT_UNKNOWN_OBJECT, f"unknown table {ref.name!r}")
            relation = _Relation(binding, None, None)
        else:
            refs.tables[table.name] += 1
            relation = _Relation(binding, table, None)
        _add_binding(frame, relation, refs)
    elif isinstance(ref, DerivedTable):
        output = _resolve_query(ref.query, catalog, refs, frame.parent)
        known = set(output) if output is not None else None
        _add_binding(frame, _Relation(ref.alias, None, known), refs)
    elif isinstance(ref, Join):
        refs.joins += 1
        _bind_table_ref(ref.left, catalog, refs, frame, pending)
        _bind_table_ref(ref.right, catalog, refs, frame, pending)
        if ref.condition is not None:
            pending.append(ref.condition)
        for column in ref.using:
            owners = [rel for rel in frame.relations if rel.owns(column)]
            undecidable = any(rel.owns(column) is None for rel in frame.relations)
            if not owners and not undecidable:
                refs.add_code(
                    REJECT_UNKNOWN_OBJECT, f"USING column {column!r} not found in joined tables"
                )
            for rel in owners:
                if rel.table is not None:
                    refs.columns[f"{rel.table.name}.{column}"] += 1
    else:  # pragma: no cover - parser only emits the three kinds above
        raise TypeError(f"unexpected table reference node {type(ref).__name__}")


def _add_binding(frame: _Scope, relation: _Relation, refs: ResolvedReferences):
    if any(rel.binding == relation.binding for rel in frame.relations):
        refs.add_code(
            REJECT_UNKNOWN_OBJECT, f"duplicate table binding {relation.binding!r} in FROM"
        )
    frame.relations.append(relation)


def _record_star(star: Star, catalog, refs, frame: _Scope):
    if star.table is None:
        return
    relation = frame.find_binding(star.table)
    if relation is None:
        refs.add_code(REJECT_UNKNOWN_OBJECT, f"unknown table or alias {star.table!r} for '*'")


def _expand_star(star: Star, frame: _Scope) -> list[str] | None:
    relations = (
        [frame.find_binding(star.table)] if star.table is not None else list(frame.relations)
    )
    columns: list[str] = []
    for rel in relations:
        if rel is None:
            return None
        if rel.table is not None:
            columns.extend(rel.table.column_names())
        elif rel.columns is not None:
            columns.extend(sorted(rel.columns))
        else:
            return None
    return columns


def _resolve_column(
    col: ColumnRef, refs, scope: _Scope, aliases: frozenset | set
) -> ColumnDef | None:
    """Resolve a column reference; returns its ColumnDef when it lands on a
    base table, None otherwise (derived/CTE columns, tolerated opaque refs)."""
    if col.table is not None:
        relation = scope.find_binding(col.table) if scope else None
        if relation is None:
            refs.add_code(REJECT_UNKNOWN_OBJECT, f"unknown table or alias {col.table!r}")
            return None
        owns = relation.owns(col.name)
        if owns is None:
            return None
        if not owns:
            refs.add_code(
                REJECT_UNKNOWN_OBJECT, f"unknown column {col.table}.{col.name}"
            )
            return None
        if relation.table is not None:
            refs.columns[f"{relation.table.name}.{col.name}"] += 1
            return relation.table.column(col.name)
        return None

    current = scope
    while current is not None:
        owners = [rel for rel in current.relations if rel.owns(col.name)]
        undecidable = any(rel.owns(col.name) is None for rel in current.relations)
        if len(owners) > 1:
            refs.add_code(
                REJECT_UNKNOWN_OBJECT,
                f"ambiguous column {col.name!r} (in "
                f"{', '.join(rel.binding for rel in owners)})",
            )
            return None
        if len(owners) == 1:
            rel = owners[0]
            if rel.table is not None:
                refs.columns[f"{rel.table.name}.{col.name}"] += 1
                return rel.table.column(col.name)
            return None
        if undecidable:
            return None  # an opaque relation may own it; tolerate
        current = current.parent
    if col.name in aliases:
        return None
    refs.add_code(REJECT_UNKNOWN_OBJECT, f"unknown column {col.name!r}")
    return None


def _resolve_expr(expr: Node, catalog, refs, scope: _Scope, aliases: frozenset | set):
    """Resolve ``expr`` into ``refs``; returns the base-table column a
    column reference lands on (:func:`_resolve_column`), None otherwise."""
    if isinstance(expr, ColumnRef):
        return _resolve_column(expr, refs, scope, aliases)
    if isinstance(expr, Star):
        _record_star(expr, catalog, refs, scope)
        return
    if isinstance(expr, Literal):
        return
    if isinstance(expr, (ScalarSubquery, Exists)):
        _resolve_query(expr.query, catalog, refs, scope)
        return
    if isinstance(expr, InSubquery):
        refs.operators["in"] += 1
        _resolve_expr(expr.expr, catalog, refs, scope, aliases)
        _resolve_query(expr.query, catalog, refs, scope)
        return
    if isinstance(expr, Binary):
        op = expr.op
        if op == "and" or op == "or":
            refs.operators[op] += 1
        elif op in _COMPARISON_OPS:
            refs.operators["comparison"] += 1
        left = _resolve_expr(expr.left, catalog, refs, scope, aliases)
        right = _resolve_expr(expr.right, catalog, refs, scope, aliases)
        if op in _ARITHMETIC_OPS:
            for column in (left, right):
                _check_label_arithmetic(column, refs, op)
        if op == "=":
            _check_enum_literal(left, expr.right, refs)
            _check_enum_literal(right, expr.left, refs)
        return
    if isinstance(expr, Unary):
        if expr.op == "not":
            refs.operators["not"] += 1
        column = _resolve_expr(expr.operand, catalog, refs, scope, aliases)
        if expr.op in ("-", "+"):
            _check_label_arithmetic(column, refs, expr.op)
        return
    if isinstance(expr, InList):
        refs.operators["in"] += 1
        column = _resolve_expr(expr.expr, catalog, refs, scope, aliases)
        for item in expr.items:
            _resolve_expr(item, catalog, refs, scope, aliases)
        if column is not None and column.metadata.enumerated_values is not None:
            for item in expr.items:
                literal = _enum_operand(item)
                if literal is not None:
                    _check_literal_in_enum(column, literal, refs)
        return
    if isinstance(expr, Between):
        refs.operators["between"] += 1
        for part in (expr.expr, expr.low, expr.high):
            _resolve_expr(part, catalog, refs, scope, aliases)
        return
    if isinstance(expr, Like):
        refs.operators["like"] += 1
        _resolve_expr(expr.expr, catalog, refs, scope, aliases)
        _resolve_expr(expr.pattern, catalog, refs, scope, aliases)
        if expr.escape is not None:
            _resolve_expr(expr.escape, catalog, refs, scope, aliases)
        return
    if isinstance(expr, IsNull):
        _resolve_expr(expr.expr, catalog, refs, scope, aliases)
        return
    if isinstance(expr, FuncCall):
        refs.functions[expr.name] += 1
        for arg in expr.args:
            _resolve_expr(arg, catalog, refs, scope, aliases)
        if expr.over is not None:
            for part in expr.over.partition_by:
                _resolve_expr(part, catalog, refs, scope, aliases)
            for item in expr.over.order_by:
                _resolve_expr(item.expr, catalog, refs, scope, aliases)
        return
    if isinstance(expr, Case):
        if expr.operand is not None:
            _resolve_expr(expr.operand, catalog, refs, scope, aliases)
        for condition, result in expr.whens:
            _resolve_expr(condition, catalog, refs, scope, aliases)
            _resolve_expr(result, catalog, refs, scope, aliases)
        if expr.else_ is not None:
            _resolve_expr(expr.else_, catalog, refs, scope, aliases)
        return
    if isinstance(expr, Cast):
        _resolve_expr(expr.expr, catalog, refs, scope, aliases)
        return
    raise TypeError(f"unexpected expression node {type(expr).__name__}")


def _check_label_arithmetic(column: ColumnDef | None, refs, op: str):
    if column is not None and column.metadata.is_label:
        refs.add_code(
            REJECT_LABEL_ARITHMETIC,
            f"arithmetic {op!r} applied to label column {column.name!r}",
        )


def _enum_operand(node: Node) -> Literal | None:
    """``node`` as a literal to check against an enumeration: a literal, or
    a minus sign before a number (the shape ``literal_node`` builds of a
    negative number) read as the negative number; None for anything else."""
    if isinstance(node, Literal):
        return node
    if (
        isinstance(node, Unary)
        and node.op == "-"
        and isinstance(node.operand, Literal)
        and node.operand.kind == "number"
    ):
        return Literal("number", "-" + node.operand.text)
    return None


def _check_enum_literal(column: ColumnDef | None, maybe_lit: Node, refs):
    if column is None or column.metadata.enumerated_values is None:
        return
    literal = _enum_operand(maybe_lit)
    if literal is not None:
        _check_literal_in_enum(column, literal, refs)


def _check_literal_in_enum(column: ColumnDef, literal: Literal, refs: ResolvedReferences):
    allowed = column.metadata.enumerated_values or []
    if literal.kind == "string":
        value = literal.text[1:-1].replace("''", "'")
        if value not in allowed:
            refs.add_code(
                REJECT_ENUM_LITERAL,
                f"{value!r} not among enumerated values of {column.name!r}",
            )
    elif literal.kind == "number":
        try:
            value = float(literal.text)
        except ValueError:
            return
        numeric_allowed = set()
        for item in allowed:
            try:
                numeric_allowed.add(float(item))
            except ValueError:
                pass
        if value not in numeric_allowed:
            refs.add_code(
                REJECT_ENUM_LITERAL,
                f"{literal.text} not among enumerated values of {column.name!r}",
            )


# ---------------------------------------------------------------------------
# Deduplication
# ---------------------------------------------------------------------------


def deduplicate(records, seen: set[str] | None = None):
    """Split ``records`` into (kept, dropped) by their dedup keys
    (``validation.normalized_form``).

    The first record of each key is kept; later ones are rejected with
    reason ``duplicate``. Order is preserved. A record without a key is a
    ValueError naming it.

    ``seen`` holds the keys already kept, such as those of earlier batches,
    and gains the keys kept here.
    """
    if seen is None:
        seen = set()
    kept, dropped = [], []
    for record in records:
        if record.validation is None or not record.validation.normalized_form:
            raise ValueError(f"record {record.id} has no dedup key")
        form = record.validation.normalized_form
        if form in seen:
            if REJECT_DUPLICATE not in record.validation.rejection_reasons:
                record.validation.rejection_reasons.append(REJECT_DUPLICATE)
            dropped.append(record)
        else:
            seen.add(form)
            kept.append(record)
    return kept, dropped
