"""A generic syntax-tree walk and the profile and clause tags read with it.

The library counts a query's shape inside its reference resolver
(``validation.resolve_references``) and walks no tree otherwise. This module
keeps the walk-based implementation that the resolver's counts replaced, as
an independent reference for the tests: it reaches every node of a tree
through the dataclass fields, whatever the resolver does or skips.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import fields

from sqlsynth.coverage import CLAUSE_KEYS, OPERATOR_KEYS, ComplexityProfile
from sqlsynth.sqltree import (
    Between,
    Binary,
    ColumnRef,
    FuncCall,
    InList,
    InSubquery,
    Join,
    Like,
    Node,
    Query,
    SelectCore,
    Star,
    TableName,
    Unary,
)

_COMPARISON_OPS = frozenset({"=", "<>", "!=", "<", "<=", ">", ">="})
_AGG_NAMES = frozenset({"count", "sum", "avg", "min", "max"})


def children(node: Node):
    """Yield the direct child nodes of ``node``."""
    for f in fields(node):
        value = getattr(node, f.name)
        if isinstance(value, Node):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, Node):
                    yield item
                elif isinstance(item, tuple):
                    for sub in item:
                        if isinstance(sub, Node):
                            yield sub


def walk(node: Node):
    """Yield ``node`` and every descendant, depth first."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(children(current))


def reference_profile(tree: Query, refs) -> ComplexityProfile:
    """The profile of ``tree``: its shape counted by one walk, its reference
    multisets taken from ``refs``."""
    join_count = 0
    select_count = 0
    clause_counts = {key: 0 for key in CLAUSE_KEYS}
    operator_counts = {key: 0 for key in OPERATOR_KEYS}
    function_counts: Counter = Counter()

    for node in walk(tree):
        if isinstance(node, SelectCore):
            select_count += 1
            if len(node.from_refs) > 1:
                join_count += len(node.from_refs) - 1
            if node.where is not None:
                clause_counts["where"] += 1
            if node.group_by:
                clause_counts["group_by"] += 1
            if node.having is not None:
                clause_counts["having"] += 1
        elif isinstance(node, Join):
            join_count += 1
        elif isinstance(node, Query):
            if node.order_by:
                clause_counts["order_by"] += 1
            if node.limit is not None:
                clause_counts["limit"] += 1
        elif isinstance(node, Binary):
            if node.op in ("and", "or"):
                operator_counts[node.op] += 1
            elif node.op in _COMPARISON_OPS:
                operator_counts["comparison"] += 1
        elif isinstance(node, Unary):
            if node.op == "not":
                operator_counts["not"] += 1
        elif isinstance(node, (InList, InSubquery)):
            operator_counts["in"] += 1
        elif isinstance(node, Between):
            operator_counts["between"] += 1
        elif isinstance(node, Like):
            operator_counts["like"] += 1
        elif isinstance(node, FuncCall):
            function_counts[node.name] += 1

    clause_counts["select"] = select_count
    return ComplexityProfile(
        join_count=join_count,
        clause_counts=clause_counts,
        operator_counts=operator_counts,
        function_counts=dict(sorted(function_counts.items())),
        subselect_count=select_count - 1,
        referenced_tables=dict(sorted(refs.tables.items())),
        referenced_columns=dict(sorted(refs.columns.items())),
    )


def reference_tags(tree: Query) -> frozenset:
    """The clause tags of ``tree``, read by one walk."""
    tags = set()
    for node in walk(tree):
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


def limit_exprs(tree: Query) -> list[Node]:
    """Every LIMIT and OFFSET expression in ``tree``."""
    return [
        expr
        for node in walk(tree)
        if isinstance(node, Query)
        for expr in (node.limit, node.offset)
        if expr is not None
    ]


def refers_in_limits(tree: Query) -> bool:
    """Whether a LIMIT or OFFSET of ``tree`` names a table or column."""
    return any(
        isinstance(node, (ColumnRef, Star, TableName))
        for expr in limit_exprs(tree)
        for node in walk(expr)
    )


def without_limits(tree: Query) -> Query:
    """A copy of ``tree`` with every LIMIT and OFFSET dropped."""
    tree = copy.deepcopy(tree)
    for node in walk(tree):
        if isinstance(node, Query):
            node.limit = node.offset = None
    return tree
