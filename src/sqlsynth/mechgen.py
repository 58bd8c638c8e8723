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
origin, such as records read from a file, and as the test oracle. It walks
no tree of its own: it reads the clause, join and function counts that
:func:`~sqlsynth.validation.resolve_references` takes in the library's one
walk over a syntax tree.

Each query is built as a syntax tree only, and one walk of the printer
:func:`~sqlsynth.sqltree.print_sql` writes its SQL and its normalized forms,
which give the record its id and later its dedup key. So the spelling,
spacing and quoting of mechanical SQL live in :mod:`sqlsynth.sqltree`, and
no mechanical candidate is ever scanned. Every record carries the tree as
``tree``, which is what :func:`~sqlsynth.sqltree.parse_select` makes of its
SQL, so the validator parses no mechanical candidate and nothing tokenizes
one. A sampled value becomes a literal through
:func:`~sqlsynth.sqltree.literal_node`; one that is no literal of its
column's type is never written.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import InsufficientPoolError
from .records import ORIGIN_MECHANICAL, QueryRecord, make_record
from .schema import ColumnDef, SchemaCatalog
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
    literal_node,
    parse_select,
    print_sql,
)
from .subschema import Subschema
from .util import derive_seed
from .validation import resolve_references

DEFAULT_AGGREGATES = ("COUNT", "SUM", "AVG", "MIN", "MAX")

# Fallback literals when a column has no sampled metadata.
_DEFAULT_INT_RANGE = (1, 100)
_DEFAULT_DATE = "1995-06-17"
_LIKE_LETTERS = "abcdefghijklmnopqrstuvwxyz"
# shared by the trees that hold it, as nothing changes a tree once built
_COUNT_STAR = FuncCall(name="count", star=True)


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
    where / aggregate / join (an explicit JOIN), read from the counts its
    resolution takes. The tags are syntactic, so it resolves against an
    empty catalog and ignores the relevance codes. Used for biased seed-example
    selection."""
    refs = resolve_references(parse_select(sql), SchemaCatalog(name=""))
    tags = {name for name in ("group_by", "order_by", "having", "where") if refs.clauses[name]}
    if refs.joins:
        tags.add("join")
    if _AGG_NAMES & refs.functions.keys():
        tags.add("aggregate")
    return frozenset(tags)


def generate_mechanical(
    subschema: Subschema, catalog: SchemaCatalog, config: MechConfig, n: int, *, seed: int = 0
) -> list[QueryRecord]:
    """Generate ``n`` valid queries over ``subschema``; deterministic for
    (seed, subschema, config, n), with records for a smaller ``n`` forming
    a prefix of a larger one. Each record carries its clause tags as
    ``tags``, its normalized forms as ``forms`` and its syntax tree as
    ``tree``."""
    config.validate()
    if n < 1:
        raise ValueError("n must be >= 1")
    tables = [catalog.require_table(name) for name in subschema.tables]
    # (table name, column, the literals of its sampled values that have a node)
    columns = [
        (table.name, column, _enumerated_literals(column))
        for table in sorted(tables, key=lambda t: t.name)
        for column in table.columns
    ]
    # every query over the subschema has the same FROM clause; the trees of
    # this call's records share its node, as nothing changes a tree once built
    from_clause = _from_clause(subschema)
    rng = random.Random(derive_seed(seed, "mechanical", subschema.id))
    records = []
    for _ in range(n):
        tree, tags = _build_query(rng, columns, from_clause, config)
        sql, literal, placeholder = print_sql(tree)
        record = make_record(sql, ORIGIN_MECHANICAL, subschema.id, forms=(literal, placeholder))
        record.tags = tags
        record.tree = tree
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# Query assembly
# ---------------------------------------------------------------------------


def _build_query(
    rng: random.Random, columns: list, from_clause: Node, config: MechConfig
) -> tuple[Query, frozenset]:
    """One query's tree over ``columns``, (table name, column, literals)
    triples, and ``from_clause``, with its clause tags as :func:`clause_tags`
    reads them."""
    grouped = rng.random() < config.p_group_by
    aggregated = grouped or rng.random() < config.p_aggregate
    k = rng.randint(*config.projection_count_range)

    group_exprs: list[Node] = []
    having = None
    tags = {"aggregate"} if aggregated else set()
    if isinstance(from_clause, Join):
        tags.add("join")

    if grouped:
        group_count = min(len(columns), max(1, k - 1))
        group_cols = rng.sample(columns, group_count)
        group_exprs = [_column_ref(t, c.name) for t, c, _ in group_cols]
        aggregates = _pick_aggregates(rng, columns, config, max(1, k - group_count))
        projections = group_exprs + aggregates
        tags.add("group_by")
        if rng.random() < config.p_having:
            having = _having_condition(rng, aggregates[0])
            tags.add("having")
    elif aggregated:
        projections = _pick_aggregates(rng, columns, config, k)
    else:
        chosen = rng.sample(columns, min(k, len(columns)))
        projections = [_column_ref(t, c.name) for t, c, _ in chosen]

    where = None
    if rng.random() < config.p_where:
        predicate_count = rng.randint(1, config.max_predicates)
        chosen = rng.sample(columns, min(predicate_count, len(columns)))
        predicates = [_predicate(rng, *column) for column in chosen]
        # AND binds tighter than OR: OR joins runs of AND-joined predicates
        runs = [[predicates[0]]]
        for node in predicates[1:]:
            if rng.random() < 0.25:
                runs.append([node])
            else:
                runs[-1].append(node)
        tags.add("where")
        where = _chain("or", [_chain("and", run) for run in runs])

    order_by: list[OrderItem] = []
    if rng.random() < config.p_order_by:
        # any projected expression may order the result
        count = min(rng.randint(1, 2), len(projections))
        for node in rng.sample(projections, count):
            order_by.append(OrderItem(expr=node, direction="desc" if rng.random() < 0.5 else None))
        tags.add("order_by")

    core = SelectCore(
        distinct=False,
        items=[SelectItem(expr=node) for node in projections],
        from_refs=[from_clause],
        where=where,
        group_by=group_exprs,
        having=having,
    )
    return Query(ctes=[], body=core, order_by=order_by), frozenset(tags)


def _column_ref(table: str, column: str) -> ColumnRef:
    return ColumnRef(table.lower(), column.lower())


def _chain(op: str, nodes: list) -> Node:
    """``nodes`` joined left to right by ``op``, nested as the parser does."""
    tree = nodes[0]
    for node in nodes[1:]:
        tree = Binary(op=op, left=tree, right=node)
    return tree


def _from_clause(subschema: Subschema) -> Node:
    """Anchor at the lexicographically first table and join the rest along
    the spanning tree, each new table attached to an already-joined one."""
    anchor = min(subschema.tables)
    ref: Node = TableName(name=anchor.lower())
    adjacency: dict[str, list] = {t: [] for t in subschema.tables}
    for fk in subschema.spanning_joins:
        adjacency[fk.from_table].append(fk)
        adjacency[fk.to_table].append(fk)
    joined = {anchor}
    frontier = [anchor]
    while frontier:
        current = frontier.pop(0)
        for fk in sorted(
            adjacency[current], key=lambda f: (f.from_table, f.to_table, f.from_columns)
        ):
            other = fk.to_table if fk.from_table == current else fk.from_table
            if other in joined:
                continue
            conditions = [
                Binary("=", _column_ref(fk.from_table, fc), _column_ref(fk.to_table, tc))
                for fc, tc in zip(fk.from_columns, fk.to_columns)
            ]
            ref = Join(
                left=ref,
                right=TableName(name=other.lower()),
                kind="inner",
                condition=_chain("and", conditions),
            )
            joined.add(other)
            frontier.append(other)
    return ref


def _pick_aggregates(
    rng: random.Random, columns: list, config: MechConfig, count: int
) -> list[FuncCall]:
    numeric = [(t, c) for t, c, _ in columns if c.is_numeric and not c.metadata.is_label]
    usable = [(t, c) for t, c, _ in columns if not c.metadata.is_label]
    out: list[FuncCall] = []
    for _ in range(count):
        func = rng.choice(config.aggregate_functions).lower()
        pool = numeric if func in ("sum", "avg") else usable  # MIN / MAX: any non-label column
        if func == "count" or not pool:
            aggregate = _COUNT_STAR
        else:
            t, c = rng.choice(pool)
            aggregate = FuncCall(name=func, args=[_column_ref(t, c.name)])
        if aggregate not in out:
            out.append(aggregate)
    return out or [_COUNT_STAR]


def _having_condition(rng: random.Random, aggregate: FuncCall) -> Node:
    bound = rng.randint(1, 10) if aggregate.name == "count" else rng.randint(1, 1000)
    return Binary(">", aggregate, Literal("number", str(bound)))


def _predicate(rng: random.Random, table: str, column: ColumnDef, literals: list) -> Node:
    ref = _column_ref(table, column.name)
    meta = column.metadata
    if literals:
        choice = rng.random()
        if choice < 0.5 or len(literals) == 1:
            return Binary("=", ref, rng.choice(literals))
        if choice < 0.75:
            return Binary("<>", ref, rng.choice(literals))
        return InList(expr=ref, items=rng.sample(literals, rng.randint(1, min(3, len(literals)))))
    if meta.is_label:
        # no safe literal known; arithmetic is off-limits anyway
        return IsNull(expr=ref, negated=True)
    if column.is_numeric:
        low, high = _numeric_range(column)
        op = rng.choice(("<", "<=", ">", ">=", "BETWEEN"))
        if op == "BETWEEN":
            a, b = sorted(_numeric_value(rng, column, low, high) for _ in range(2))
            return Between(ref, _format_literal(column, a), _format_literal(column, b))
        value = _numeric_value(rng, column, low, high)
        return Binary(op, ref, _format_literal(column, value))
    if column.sql_type == "date":
        low, high = meta.value_range or (_DEFAULT_DATE, _DEFAULT_DATE)
        op = rng.choice(("<", "<=", ">", ">=", "BETWEEN"))
        if op == "BETWEEN":
            return Between(ref, _string(low), _string(high))
        return Binary(op, ref, _string(rng.choice((low, high))))
    if column.sql_type == "boolean":
        return Binary("=", ref, Literal("boolean", rng.choice(("TRUE", "FALSE"))))
    return Like(expr=ref, pattern=Literal("string", f"'{rng.choice(_LIKE_LETTERS)}%'"))


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


def _format_literal(column: ColumnDef, value: float) -> Node:
    return literal_node(str(int(value)) if column.sql_type == "integer" else format(value, ".2f"))


def _enumerated_literals(column: ColumnDef) -> list[Node]:
    """The literal nodes of ``column``'s sampled values; a value that is no
    literal of the column's type (``nan`` in a numeric column, ``t`` in a
    boolean one) has none and is left out."""
    values = column.metadata.enumerated_values or ()
    if column.is_numeric:
        literals = map(literal_node, values)
    elif column.sql_type == "boolean":
        literals = (literal_node(value.upper()) for value in values)
    else:
        literals = map(_string, values)
    return [node for node in literals if node is not None]


def _string(value: str) -> Literal:
    escaped = value.replace("'", "''")
    return Literal("string", f"'{escaped}'")


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
