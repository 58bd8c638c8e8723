"""Mechanical (algorithmic) query generation over a subschema.

Queries join every table of the subschema along its spanning joins with
equality conditions, then add projections, filters, grouping, ordering,
having, and aggregates by configurable pseudo-random selection. Output is
valid by construction: every column reference is table-qualified, filters
on enumerated columns use only the known literals, and label columns never
appear in arithmetic.

Determinism: the generator draws from a Mersenne-Twister ``random.Random``
seeded with a stable hash of (seed, subschema id), so output depends only
on (seed, subschema, config, n) and is reproducible across platforms.

The generator knows which clauses it built, so each record it returns
carries them as ``tags`` (group_by / order_by / having / where / aggregate /
join), the tags :func:`clause_tags` would read from the parsed query. Seed
pools hold :class:`SeedExample` values built from those tags, so seed-example
selection never parses; :func:`clause_tags` remains for text of unknown
origin, such as records read from a file, and as the test oracle.

It also builds each query's syntax tree alongside its text: every record
carries as ``tree`` the tree :func:`~sqlsynth.sqltree.parse_select` makes of
its SQL, so the validator parses no mechanical candidate. A record has no
tree when a catalog name would not read back as itself unquoted
(:func:`~sqlsynth.sqltree.bare_name`) or a sampled literal is not one
:func:`~sqlsynth.sqltree.literal_node` mirrors; it is then parsed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import InsufficientPoolError
from .records import ORIGIN_MECHANICAL, QueryRecord, make_record
from .schema import ColumnDef, SchemaCatalog, TableDef
from .sqltree import (
    Between,
    Binary,
    ColumnRef,
    FuncCall,
    InList,
    IsNull,
    Join,
    Like,
    Literal,
    Node,
    OrderItem,
    Query,
    SelectCore,
    SelectItem,
    TableName,
    bare_name,
    literal_node,
    parse_select,
    walk,
)
from .subschema import Subschema
from .util import derive_seed

DEFAULT_AGGREGATES = ("COUNT", "SUM", "AVG", "MIN", "MAX")

# Fallback literals when a column has no sampled metadata.
_DEFAULT_INT_RANGE = (1, 100)
_DEFAULT_DATE = "1995-06-17"
_LIKE_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class MechConfig:
    p_where: float = 0.6
    p_group_by: float = 0.3
    p_order_by: float = 0.4
    p_having: float = 0.25  # applied only to grouped queries
    p_aggregate: float = 0.3  # whole-query aggregation when not grouping
    max_predicates: int = 3
    aggregate_functions: tuple[str, ...] = DEFAULT_AGGREGATES
    projection_count_range: tuple[int, int] = (1, 4)

    def validate(self):
        for name in ("p_where", "p_group_by", "p_order_by", "p_having", "p_aggregate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")
        if self.p_having > 0 and self.p_group_by == 0:
            raise ValueError("p_having > 0 requires p_group_by > 0 (HAVING needs GROUP BY)")
        lo, hi = self.projection_count_range
        if not (1 <= lo <= hi):
            raise ValueError(f"projection_count_range must be a nonempty range, got {lo}..{hi}")
        if self.max_predicates < 1:
            raise ValueError("max_predicates must be >= 1")
        unknown = set(self.aggregate_functions) - set(DEFAULT_AGGREGATES)
        if unknown:
            raise ValueError(f"unsupported aggregate functions: {sorted(unknown)}")


@dataclass(frozen=True)
class SeedExample:
    sql: str
    features: frozenset = field(default_factory=frozenset)

    @classmethod
    def from_record(cls, record: QueryRecord) -> SeedExample:
        """A record as a seed example: its SQL and clause tags, the tags of
        its construction when it carries them (``record.tags``), parsed from
        the SQL otherwise."""
        tags = record.tags if record.tags is not None else clause_tags(record.sql)
        return cls(sql=record.sql, features=tags)


_AGG_NAMES = frozenset(f.lower() for f in DEFAULT_AGGREGATES)


def clause_tags(sql: str) -> frozenset:
    """Clause tags present in a query: group_by / order_by / having /
    where / aggregate / join, read from its parse tree. Used for biased
    seed-example selection."""
    query = parse_select(sql)
    tags = set()
    for node in walk(query):
        if isinstance(node, SelectCore):
            if node.group_by:
                tags.add("group_by")
            if node.having:
                tags.add("having")
            if node.where is not None:
                tags.add("where")
        elif isinstance(node, Query) and node.order_by:
            tags.add("order_by")
        elif isinstance(node, Join):
            tags.add("join")
        elif isinstance(node, FuncCall) and node.name in _AGG_NAMES:
            tags.add("aggregate")
    return frozenset(tags)


def generate_mechanical(
    subschema: Subschema, catalog: SchemaCatalog, config: MechConfig, n: int, *, seed: int = 0
) -> list[QueryRecord]:
    """Generate ``n`` valid queries over ``subschema``; deterministic for
    (seed, subschema, config, n), with records for a smaller ``n`` forming
    a prefix of a larger one. Each record carries its clause tags as
    ``tags``, its token list as ``tokens`` and its syntax tree as ``tree``
    (None when a name or literal it writes has no tree built here)."""
    config.validate()
    if n < 1:
        raise ValueError("n must be >= 1")
    tables = [catalog.require_table(name) for name in subschema.tables]
    bare = _bare_names(subschema, tables)
    columns = [
        (table.name, column)
        for table in sorted(tables, key=lambda t: t.name)
        for column in table.columns
    ]
    # every query over the subschema has the same FROM clause; the trees of
    # this call's records share its node, as nothing changes a tree once built
    from_clause = _from_clause(subschema)
    rng = random.Random(derive_seed(seed, "mechanical", subschema.id))
    records = []
    for _ in range(n):
        sql, tags, tree = _build_query(rng, columns, from_clause, config)
        record = make_record(sql, ORIGIN_MECHANICAL, subschema.id)
        record.tags = tags
        record.tree = tree if bare else None
        records.append(record)
    return records


def _bare_names(subschema: Subschema, tables: list[TableDef]) -> bool:
    """Whether every table and column name a query over ``subschema`` may
    write parses back as itself (:func:`~sqlsynth.sqltree.bare_name`)."""
    names = {*subschema.tables, *(t.name for t in tables)}
    names.update(c.name for t in tables for c in t.columns)
    for fk in subschema.spanning_joins:
        names.update((fk.from_table, fk.to_table, *fk.from_columns, *fk.to_columns))
    return all(map(bare_name, names))


# ---------------------------------------------------------------------------
# Query assembly
# ---------------------------------------------------------------------------
#
# Each piece of a query is built as (text, node): the SQL text and the node
# parse_select makes of that text. A node is None where the text holds a
# literal that literal_node does not mirror; the query then has no tree.


def _build_query(
    rng: random.Random, columns: list, from_clause: tuple[str, Node], config: MechConfig
) -> tuple[str, frozenset, Query | None]:
    """One query over ``columns``, (table name, column) pairs, and
    ``from_clause``, its clause tags as :func:`clause_tags` reads them, and
    the tree :func:`~sqlsynth.sqltree.parse_select` makes of it, or None."""
    grouped = rng.random() < config.p_group_by
    aggregated = grouped or rng.random() < config.p_aggregate
    k = rng.randint(*config.projection_count_range)

    projections: list[tuple[str, Node]] = []
    group_exprs: list[tuple[str, Node]] = []
    order_candidates: list[tuple[str, Node]] = []
    having = None

    if grouped:
        group_count = min(len(columns), max(1, k - 1))
        group_cols = rng.sample(columns, group_count)
        group_exprs = [_column_ref(t, c.name) for t, c in group_cols]
        projections.extend(group_exprs)
        agg_count = max(1, k - group_count)
        aggregates = _pick_aggregates(rng, columns, config, agg_count)
        projections.extend(aggregates)
        order_candidates = group_exprs + aggregates
        if rng.random() < config.p_having:
            having = _having_condition(rng, aggregates[0])
    elif aggregated:
        aggregates = _pick_aggregates(rng, columns, config, k)
        projections.extend(aggregates)
        order_candidates = list(aggregates)
    else:
        chosen = rng.sample(columns, min(k, len(columns)))
        projections = [_column_ref(t, c.name) for t, c in chosen]
        order_candidates = list(projections)

    tags = {"aggregate"} if aggregated else set()
    from_text, from_node = from_clause
    if " JOIN " in from_text:
        tags.add("join")
    sql = f"SELECT {', '.join(text for text, _ in projections)} FROM {from_text}"

    where = None
    treeable = True  # False when the WHERE clause holds a literal without a node
    if rng.random() < config.p_where:
        predicate_count = rng.randint(1, config.max_predicates)
        chosen = rng.sample(columns, min(predicate_count, len(columns)))
        predicates = [_predicate(rng, t, c) for t, c in chosen]
        clause, node = predicates[0]
        # AND binds tighter than OR: OR joins runs of AND-joined predicates
        runs = [[node]]
        for text, node in predicates[1:]:
            connector = "OR" if rng.random() < 0.25 else "AND"
            clause = f"{clause} {connector} {text}"
            if connector == "OR":
                runs.append([node])
            else:
                runs[-1].append(node)
        sql += f" WHERE {clause}"
        tags.add("where")
        where = _chain("or", [_chain("and", run) for run in runs])
        treeable = where is not None

    if group_exprs:
        sql += f" GROUP BY {', '.join(text for text, _ in group_exprs)}"
        tags.add("group_by")
    if having:
        sql += f" HAVING {having[0]}"
        tags.add("having")

    order_by: list[OrderItem] = []
    if rng.random() < config.p_order_by and order_candidates:
        count = min(rng.randint(1, 2), len(order_candidates))
        rendered = []
        for text, node in rng.sample(order_candidates, count):
            descending = rng.random() < 0.5
            rendered.append(f"{text} DESC" if descending else text)
            order_by.append(OrderItem(expr=node, direction="desc" if descending else None))
        sql += f" ORDER BY {', '.join(rendered)}"
        tags.add("order_by")

    tree = None
    if treeable:
        core = SelectCore(
            distinct=False,
            items=[SelectItem(expr=node) for _, node in projections],
            from_refs=[from_node],
            where=where,
            group_by=[node for _, node in group_exprs],
            having=having[1] if having else None,
        )
        tree = Query(ctes=[], body=core, order_by=order_by)
    return sql, frozenset(tags), tree


def _column_ref(table: str, column: str) -> tuple[str, ColumnRef]:
    return f"{table}.{column}", ColumnRef(table.lower(), column.lower())


def _chain(op: str, nodes: list) -> Node | None:
    """``nodes`` joined left to right by ``op``, nested as the parser nests
    them; None if one of them is None."""
    if any(node is None for node in nodes):
        return None
    tree = nodes[0]
    for node in nodes[1:]:
        tree = Binary(op=op, left=tree, right=node)
    return tree


def _from_clause(subschema: Subschema) -> tuple[str, Node]:
    """Anchor at the lexicographically first table and join the rest along
    the spanning tree, each new table attached to an already-joined one."""
    anchor = min(subschema.tables)
    ref: Node = TableName(name=anchor.lower())
    if len(subschema.tables) == 1:
        return anchor, ref
    adjacency: dict[str, list] = {t: [] for t in subschema.tables}
    for fk in subschema.spanning_joins:
        adjacency[fk.from_table].append(fk)
        adjacency[fk.to_table].append(fk)
    joined = {anchor}
    parts = [anchor]
    frontier = [anchor]
    while frontier:
        current = frontier.pop(0)
        for fk in sorted(
            adjacency[current], key=lambda f: (f.from_table, f.to_table, f.from_columns)
        ):
            other = fk.to_table if fk.from_table == current else fk.from_table
            if other in joined:
                continue
            conditions = []
            for fc, tc in zip(fk.from_columns, fk.to_columns):
                left, left_node = _column_ref(fk.from_table, fc)
                right, right_node = _column_ref(fk.to_table, tc)
                conditions.append((f"{left} = {right}", Binary("=", left_node, right_node)))
            parts.append(f"INNER JOIN {other} ON {' AND '.join(text for text, _ in conditions)}")
            ref = Join(
                left=ref,
                right=TableName(name=other.lower()),
                kind="inner",
                condition=_chain("and", [node for _, node in conditions]),
            )
            joined.add(other)
            frontier.append(other)
    return " ".join(parts), ref


def _pick_aggregates(
    rng: random.Random, columns: list, config: MechConfig, count: int
) -> list[tuple[str, FuncCall]]:
    numeric = [(t, c) for t, c in columns if c.is_numeric and not c.metadata.is_label]
    usable = [(t, c) for t, c in columns if not c.metadata.is_label]
    out: list[tuple[str, FuncCall]] = []
    seen = set()
    for _ in range(count):
        func = rng.choice(config.aggregate_functions).upper()
        pool = numeric if func in ("SUM", "AVG") else usable  # MIN / MAX: any non-label column
        if func == "COUNT" or not pool:
            aggregate = _count_star()
        else:
            t, c = rng.choice(pool)
            ref, node = _column_ref(t, c.name)
            aggregate = (f"{func}({ref})", FuncCall(name=func.lower(), args=[node]))
        if aggregate[0] not in seen:
            seen.add(aggregate[0])
            out.append(aggregate)
    return out or [_count_star()]


def _count_star() -> tuple[str, FuncCall]:
    return "COUNT(*)", FuncCall(name="count", star=True)


def _having_condition(rng: random.Random, aggregate: tuple[str, FuncCall]) -> tuple[str, Node]:
    text, node = aggregate
    bound = rng.randint(1, 10) if text.startswith("COUNT") else rng.randint(1, 1000)
    return f"{text} > {bound}", Binary(">", node, Literal("number", str(bound)))


def _predicate(rng: random.Random, table: str, column: ColumnDef) -> tuple[str, Node | None]:
    ref, ref_node = _column_ref(table, column.name)
    meta = column.metadata
    if meta.enumerated_values:
        literals = [_literal(column, v) for v in meta.enumerated_values]
        choice = rng.random()
        if choice < 0.5 or len(literals) == 1:
            return _comparison(ref, ref_node, "=", rng.choice(literals))
        if choice < 0.75:
            return _comparison(ref, ref_node, "<>", rng.choice(literals))
        picked = rng.sample(literals, rng.randint(1, min(3, len(literals))))
        items = [literal_node(text) for text in picked]
        node = None if any(item is None for item in items) else InList(expr=ref_node, items=items)
        return f"{ref} IN ({', '.join(picked)})", node
    if meta.is_label:
        # no safe literal known; arithmetic is off-limits anyway
        return f"{ref} IS NOT NULL", IsNull(expr=ref_node, negated=True)
    if column.is_numeric:
        low, high = _numeric_range(column)
        op = rng.choice(("<", "<=", ">", ">=", "BETWEEN"))
        if op == "BETWEEN":
            a, b = sorted(_numeric_value(rng, column, low, high) for _ in range(2))
            return _between(ref, ref_node, _format_literal(column, a), _format_literal(column, b))
        value = _numeric_value(rng, column, low, high)
        return _comparison(ref, ref_node, op, _format_literal(column, value))
    if column.sql_type == "date":
        low, high = meta.value_range or (_DEFAULT_DATE, _DEFAULT_DATE)
        op = rng.choice(("<", "<=", ">", ">=", "BETWEEN"))
        if op == "BETWEEN":
            return _between(ref, ref_node, f"'{low}'", f"'{high}'")
        return _comparison(ref, ref_node, op, f"'{rng.choice((low, high))}'")
    if column.sql_type == "boolean":
        return _comparison(ref, ref_node, "=", rng.choice(("TRUE", "FALSE")))
    pattern = f"'{rng.choice(_LIKE_LETTERS)}%'"
    return f"{ref} LIKE {pattern}", Like(expr=ref_node, pattern=Literal("string", pattern))


def _comparison(ref: str, ref_node: Node, op: str, literal: str) -> tuple[str, Node | None]:
    node = literal_node(literal)
    return f"{ref} {op} {literal}", None if node is None else Binary(op, ref_node, node)


def _between(ref: str, ref_node: Node, low: str, high: str) -> tuple[str, Node | None]:
    low_node, high_node = literal_node(low), literal_node(high)
    node = None
    if low_node is not None and high_node is not None:
        node = Between(expr=ref_node, low=low_node, high=high_node)
    return f"{ref} BETWEEN {low} AND {high}", node


def _numeric_range(column: ColumnDef) -> tuple[float, float]:
    if column.metadata.value_range:
        try:
            low, high = (float(v) for v in column.metadata.value_range)
            return low, high
        except ValueError:
            pass
    return float(_DEFAULT_INT_RANGE[0]), float(_DEFAULT_INT_RANGE[1])


def _numeric_value(rng: random.Random, column: ColumnDef, low: float, high: float) -> float:
    if column.sql_type == "integer":
        return float(rng.randint(int(low), max(int(low), int(high))))
    return low + rng.random() * (high - low)


def _format_literal(column: ColumnDef, value: float) -> str:
    if column.sql_type == "integer":
        return str(int(value))
    return format(value, ".2f")


def _literal(column: ColumnDef, value: str) -> str:
    if column.is_numeric:
        return value
    if column.sql_type == "boolean":
        return value.upper()
    escaped = value.replace("'", "''")
    return f"'{escaped}'"


# ---------------------------------------------------------------------------
# Seed-example selection
# ---------------------------------------------------------------------------


def select_seed_examples(
    pool: list[SeedExample],
    k: int,
    bias: str | None = None,
    bias_weight: float = 0.9,
    rng_seed: int = 0,
) -> list[SeedExample]:
    """Sample ``k`` examples without replacement, biased toward a clause.

    Each draw comes from the bias-tagged sub-pool with probability
    ``bias_weight`` and from the untagged remainder otherwise, so the
    expected share of biased examples equals the weight; an exhausted
    sub-pool falls back to everything still available.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > len(pool):
        raise InsufficientPoolError(f"need {k} examples, pool has {len(pool)}")
    rng = random.Random(rng_seed)
    remaining = list(pool)
    out: list[SeedExample] = []
    for _ in range(k):
        if bias is not None:
            tagged = [example for example in remaining if bias in example.features]
            untagged = [example for example in remaining if bias not in example.features]
            if rng.random() < bias_weight:
                candidates = tagged or remaining
            else:
                candidates = untagged or remaining
        else:
            candidates = remaining
        picked = rng.choice(candidates)
        remaining.remove(picked)
        out.append(picked)
    return out
