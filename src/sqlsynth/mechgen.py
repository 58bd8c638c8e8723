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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import InsufficientPoolError
from .records import ORIGIN_MECHANICAL, QueryRecord, make_record
from .schema import ColumnDef, SchemaCatalog, TableDef
from .sqltree import FuncCall, Join, Query, SelectCore, parse_select, walk
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
    ``tags`` and its token list as ``tokens``."""
    config.validate()
    if n < 1:
        raise ValueError("n must be >= 1")
    tables = [catalog.require_table(name) for name in subschema.tables]
    rng = random.Random(derive_seed(seed, "mechanical", subschema.id))
    records = []
    for _ in range(n):
        sql, tags = _build_query(rng, subschema, tables, config)
        record = make_record(sql, ORIGIN_MECHANICAL, subschema.id)
        record.tags = tags
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# Query assembly
# ---------------------------------------------------------------------------


def _build_query(
    rng: random.Random, subschema: Subschema, tables: list[TableDef], config: MechConfig
) -> tuple[str, frozenset]:
    """One query and its clause tags, as :func:`clause_tags` reads them."""
    columns = [
        (table.name, column)
        for table in sorted(tables, key=lambda t: t.name)
        for column in table.columns
    ]
    grouped = rng.random() < config.p_group_by
    aggregated = grouped or rng.random() < config.p_aggregate
    k = rng.randint(*config.projection_count_range)

    projections: list[str] = []
    group_exprs: list[str] = []
    order_candidates: list[str] = []
    having_expr = None

    if grouped:
        group_count = min(len(columns), max(1, k - 1))
        group_cols = rng.sample(columns, group_count)
        group_exprs = [f"{t}.{c.name}" for t, c in group_cols]
        projections.extend(group_exprs)
        agg_count = max(1, k - group_count)
        aggregates = _pick_aggregates(rng, columns, config, agg_count)
        projections.extend(aggregates)
        order_candidates = group_exprs + aggregates
        if rng.random() < config.p_having:
            having_expr = _having_condition(rng, aggregates[0])
    elif aggregated:
        aggregates = _pick_aggregates(rng, columns, config, k)
        projections.extend(aggregates)
        order_candidates = list(aggregates)
    else:
        chosen = rng.sample(columns, min(k, len(columns)))
        projections = [f"{t}.{c.name}" for t, c in chosen]
        order_candidates = list(projections)

    tags = {"aggregate"} if aggregated else set()
    from_clause = _from_clause(rng, subschema)
    if " JOIN " in from_clause:
        tags.add("join")
    sql = f"SELECT {', '.join(projections)} FROM {from_clause}"

    if rng.random() < config.p_where:
        predicate_count = rng.randint(1, config.max_predicates)
        chosen = rng.sample(columns, min(predicate_count, len(columns)))
        predicates = [_predicate(rng, t, c) for t, c in chosen]
        clause = predicates[0]
        for predicate in predicates[1:]:
            connector = "OR" if rng.random() < 0.25 else "AND"
            clause = f"{clause} {connector} {predicate}"
        sql += f" WHERE {clause}"
        tags.add("where")

    if group_exprs:
        sql += f" GROUP BY {', '.join(group_exprs)}"
        tags.add("group_by")
    if having_expr:
        sql += f" HAVING {having_expr}"
        tags.add("having")

    if rng.random() < config.p_order_by and order_candidates:
        count = min(rng.randint(1, 2), len(order_candidates))
        items = rng.sample(order_candidates, count)
        rendered = [f"{item} DESC" if rng.random() < 0.5 else item for item in items]
        sql += f" ORDER BY {', '.join(rendered)}"
        tags.add("order_by")
    return sql, frozenset(tags)


def _from_clause(rng: random.Random, subschema: Subschema) -> str:
    """Anchor at the lexicographically first table and join the rest along
    the spanning tree, each new table attached to an already-joined one."""
    anchor = min(subschema.tables)
    if len(subschema.tables) == 1:
        return anchor
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
            conditions = " AND ".join(
                f"{fk.from_table}.{fc} = {fk.to_table}.{tc}"
                for fc, tc in zip(fk.from_columns, fk.to_columns)
            )
            parts.append(f"INNER JOIN {other} ON {conditions}")
            joined.add(other)
            frontier.append(other)
    return " ".join(parts)


def _pick_aggregates(
    rng: random.Random, columns: list, config: MechConfig, count: int
) -> list[str]:
    numeric = [(t, c) for t, c in columns if c.is_numeric and not c.metadata.is_label]
    usable = [(t, c) for t, c in columns if not c.metadata.is_label]
    out: list[str] = []
    seen = set()
    for _ in range(count):
        func = rng.choice(config.aggregate_functions).upper()
        if func == "COUNT":
            expr = "COUNT(*)"
        elif func in ("SUM", "AVG"):
            if not numeric:
                expr = "COUNT(*)"
            else:
                t, c = rng.choice(numeric)
                expr = f"{func}({t}.{c.name})"
        else:  # MIN / MAX work on any non-label column
            if not usable:
                expr = "COUNT(*)"
            else:
                t, c = rng.choice(usable)
                expr = f"{func}({t}.{c.name})"
        if expr not in seen:
            seen.add(expr)
            out.append(expr)
    return out or ["COUNT(*)"]


def _having_condition(rng: random.Random, aggregate: str) -> str:
    if aggregate.startswith("COUNT"):
        return f"{aggregate} > {rng.randint(1, 10)}"
    return f"{aggregate} > {rng.randint(1, 1000)}"


def _predicate(rng: random.Random, table: str, column: ColumnDef) -> str:
    ref = f"{table}.{column.name}"
    meta = column.metadata
    if meta.enumerated_values:
        literals = [_literal(column, v) for v in meta.enumerated_values]
        choice = rng.random()
        if choice < 0.5 or len(literals) == 1:
            return f"{ref} = {rng.choice(literals)}"
        if choice < 0.75:
            return f"{ref} <> {rng.choice(literals)}"
        picked = rng.sample(literals, rng.randint(1, min(3, len(literals))))
        return f"{ref} IN ({', '.join(picked)})"
    if meta.is_label:
        return f"{ref} IS NOT NULL"  # no safe literal known; arithmetic is off-limits anyway
    if column.is_numeric:
        low, high = _numeric_range(column)
        op = rng.choice(("<", "<=", ">", ">=", "BETWEEN"))
        if op == "BETWEEN":
            a, b = sorted(_numeric_value(rng, column, low, high) for _ in range(2))
            return (
                f"{ref} BETWEEN {_format_literal(column, a)} AND {_format_literal(column, b)}"
            )
        value = _numeric_value(rng, column, low, high)
        return f"{ref} {op} {_format_literal(column, value)}"
    if column.sql_type == "date":
        low, high = meta.value_range or (_DEFAULT_DATE, _DEFAULT_DATE)
        op = rng.choice(("<", "<=", ">", ">=", "BETWEEN"))
        if op == "BETWEEN":
            return f"{ref} BETWEEN '{low}' AND '{high}'"
        return f"{ref} {op} '{rng.choice((low, high))}'"
    if column.sql_type == "boolean":
        return f"{ref} = {rng.choice(('TRUE', 'FALSE'))}"
    return f"{ref} LIKE '{rng.choice(_LIKE_LETTERS)}%'"


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
