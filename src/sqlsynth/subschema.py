"""Foreign-key join graph and connected-subschema enumeration.

A subschema is a nonempty set of tables whose induced subgraph of the FK
join graph is connected; these sets are the targets both mechanical and
prompted generation work against. Enumeration is exact and duplicate-free:
every connected vertex subset appears exactly once, anchored at its
lexicographically smallest member so no set is ever produced twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GraphTooLargeError, NotConnectedError, UnknownObjectError
from .schema import ForeignKey, SchemaCatalog
from .util import read_jsonl, stable_hash_hex, write_jsonl

DEFAULT_SAFETY_LIMIT = 24


@dataclass
class JoinGraph:
    nodes: list[str]
    # one undirected edge per table pair; all FKs between the pair are kept
    edges: dict[tuple[str, str], list[ForeignKey]] = field(default_factory=dict)

    def adjacency(self) -> dict[str, set[str]]:
        adj = {n: set() for n in self.nodes}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj


@dataclass
class Subschema:
    id: str
    tables: tuple[str, ...]
    spanning_joins: list[ForeignKey]


def subschema_id(tables) -> str:
    return stable_hash_hex(*sorted(tables), length=12)


def build_join_graph(catalog: SchemaCatalog) -> JoinGraph:
    """One node per table; one edge per table pair linked by at least one FK."""
    graph = JoinGraph(nodes=sorted(t.name for t in catalog.tables))
    for fk in catalog.fk_edges:
        if fk.from_table == fk.to_table:
            continue  # self-references carry no join-graph information
        pair = tuple(sorted((fk.from_table, fk.to_table)))
        graph.edges.setdefault(pair, []).append(fk)
    return graph


def enumerate_subschemas(
    graph: JoinGraph,
    max_tables: int | None = None,
    min_tables: int = 1,
    safety_limit: int = DEFAULT_SAFETY_LIMIT,
) -> list[Subschema]:
    """Every connected induced vertex subset of ``graph``, exactly once.

    Output is ordered by (size, lexicographic table names). ``min_tables=2``
    excludes singletons; ``max_tables`` caps subset size. Raises
    GraphTooLargeError beyond ``safety_limit`` nodes since the enumeration
    is exponential in the worst case.
    """
    if len(graph.nodes) > safety_limit:
        raise GraphTooLargeError(
            f"{len(graph.nodes)} tables exceeds the enumeration safety limit {safety_limit}"
        )
    if max_tables is not None and max_tables < 1:
        raise ValueError("max_tables must be >= 1 when given")
    adj = graph.adjacency()
    cap = max_tables if max_tables is not None else len(graph.nodes)
    found: list[tuple[str, ...]] = []

    # Anchored growth: sets whose smallest member is `anchor` are grown using
    # only vertices greater than `anchor`. Within one anchor, a set is grown
    # from each frontier vertex once, and vertices already tried at this
    # level are banned below so each subset emerges exactly one way.
    def grow(current: frozenset, frontier: list[str], banned: frozenset):
        found.append(tuple(sorted(current)))
        if len(current) >= cap:
            return
        local_banned = set(banned)
        for vertex in frontier:
            if vertex in local_banned:
                continue
            new_frontier = sorted(
                (set(frontier) | {w for w in adj[vertex] if w > anchor})
                - current
                - {vertex}
                - local_banned
            )
            grow(current | {vertex}, new_frontier, frozenset(local_banned))
            local_banned.add(vertex)

    for anchor in sorted(graph.nodes):
        grow(
            frozenset([anchor]),
            sorted(w for w in adj[anchor] if w > anchor),
            frozenset(),
        )

    found = [tables for tables in found if len(tables) >= min_tables]
    found.sort(key=lambda tables: (len(tables), tables))
    return [
        Subschema(
            id=subschema_id(tables),
            tables=tables,
            spanning_joins=choose_spanning_joins(graph, set(tables)),
        )
        for tables in found
    ]


def choose_spanning_joins(graph: JoinGraph, tables: set[str]) -> list[ForeignKey]:
    """Deterministic spanning tree over ``tables``: edges in lexicographic
    order, connected greedily (union-find); |tables| - 1 edges.

    The first FK annotation on each chosen edge supplies the join condition.
    Raises NotConnectedError when the set does not induce a connected
    subgraph.
    """
    tables = {t.lower() for t in tables}
    unknown = tables - set(graph.nodes)
    if unknown:
        raise UnknownObjectError(f"tables not in join graph: {sorted(unknown)}")
    if len(tables) == 1:
        return []
    parent = {t: t for t in tables}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen: list[ForeignKey] = []
    for pair in sorted(graph.edges):
        a, b = pair
        if a not in tables or b not in tables:
            continue
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            chosen.append(graph.edges[pair][0])
    if len(chosen) != len(tables) - 1:
        raise NotConnectedError(f"tables {sorted(tables)} do not induce a connected subgraph")
    return chosen


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_subschemas(subschemas: list[Subschema], path) -> None:
    write_jsonl(path, "subschemas", subschemas)


def load_subschemas(path) -> list[Subschema]:
    return read_jsonl(path, "subschemas", Subschema)
