#!/usr/bin/env python3
"""Coverage profiling and gap-directed steering.

Each validated query is parsed and resolved against the catalog; the
per-query profiles fold into corpus statistics (the four complexity facets,
clause presence, table/column reference frequencies). Shortfalls against
the coverage targets become concrete directives: subschema weights, column
filters for the CREATE statements, and a clause bias for the next batch.
"""

from pathlib import Path

from sqlsynth.coverage import CoverageTargets, aggregate_coverage, plan_regeneration, profile_query
from sqlsynth.mechgen import MechConfig, generate_mechanical
from sqlsynth.schema import infer_foreign_keys, ingest_ddl
from sqlsynth.subschema import build_join_graph, enumerate_subschemas

REPO = Path(__file__).resolve().parent.parent
catalog = infer_foreign_keys(ingest_ddl((REPO / "data" / "tpch_schema.sql").read_text(), "tpch"))
graph = build_join_graph(catalog)
subschemas = enumerate_subschemas(graph, max_tables=2)

sql = (
    "SELECT n_name, COUNT(*) FROM nation INNER JOIN region "
    "ON n_regionkey = r_regionkey WHERE r_name = 'ASIA' "
    "GROUP BY n_name HAVING COUNT(*) > 1 ORDER BY n_name"
)
profile = profile_query(sql, catalog)
print("single-query profile:")
print(f"  joins={profile.join_count}  subselects={profile.subselect_count}")
print(f"  clauses={profile.clause_counts}")
print(f"  operators={ {k: v for k, v in profile.operator_counts.items() if v} }")
print(f"  functions={profile.function_counts}")
print(f"  tables={profile.referenced_tables}")
print(f"  columns={profile.referenced_columns}")

# A deliberately narrow corpus: only nation-region queries.
config = MechConfig(p_group_by=0.3, p_having=0.2)
narrow = next(s for s in subschemas if s.tables == ("nation", "region"))
records = generate_mechanical(narrow, catalog, config, 120, seed=5)
profiles = [profile_query(r.sql, catalog) for r in records]
report = aggregate_coverage(profiles, "mechanical", catalog, CoverageTargets())

print("\ncorpus facets (mean / std / min / max):")
for facet, stats in report.facets.items():
    print(f"  {facet:<10} {stats.mean:6.2f} / {stats.std:5.2f} / {stats.min:g} / {stats.max:g}")
print(f"clause presence: { {k: round(v, 3) for k, v in report.clause_presence_freq.items()} }")
print(f"gaps found: {len(report.gap_list)} "
      f"({sum(1 for g in report.gap_list if g.kind == 'table_underused')} underused tables, "
      f"{sum(1 for g in report.gap_list if g.kind == 'column_unused')} unused columns, "
      f"{sum(1 for g in report.gap_list if g.kind == 'operation_underused')} lagging clauses)")

directives = plan_regeneration(report, subschemas, catalog)
boosted = [sid for sid, w in directives.subschema_weights.items() if w > 1.0]
print(f"\ndirectives for the next batch:")
print(f"  {len(boosted)} of {len(subschemas)} subschemas get boosted sampling weight")
print(f"  column filters for {len(directives.column_filters)} tables "
      f"(unused columns + keys, e.g. part -> {directives.column_filters.get('part')})")
print(f"  clause bias override: {directives.bias_override}")
