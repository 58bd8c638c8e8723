#!/usr/bin/env python3
"""Mechanical query generation: configurable, deterministic, valid.

Queries join all subschema tables along the spanning tree and pick
projections, filters, grouping, ordering, and aggregates by seeded
pseudo-random selection. Clause probabilities are honored exactly in
expectation, which is what makes the generator steerable.
"""

from pathlib import Path

from sqlsynth.mechgen import MechConfig, SeedExample, generate_mechanical, select_seed_examples
from sqlsynth.schema import CsvDirSampler, infer_foreign_keys, ingest_ddl, profile_columns
from sqlsynth.subschema import build_join_graph, enumerate_subschemas
from sqlsynth.validation import validate_relevance, validate_syntax

REPO = Path(__file__).resolve().parent.parent
catalog = infer_foreign_keys(ingest_ddl((REPO / "data" / "tpch_schema.sql").read_text(), "tpch"))
catalog = profile_columns(catalog, CsvDirSampler(REPO / "data" / "tpch_sample", catalog))

graph = build_join_graph(catalog)
subschema = next(
    s for s in enumerate_subschemas(graph) if s.tables == ("customer", "nation", "orders")
)

config = MechConfig(p_group_by=0.5, p_order_by=0.5, p_having=0.4, p_where=0.8)
records = generate_mechanical(subschema, catalog, config, 6, seed=7)
print(f"six queries over {subschema.tables}:\n")
for record in records:
    print(f"  {record.sql}\n")

# Same seed, same output; different seed, different workload.
again = generate_mechanical(subschema, catalog, config, 6, seed=7)
assert [r.sql for r in again] == [r.sql for r in records]
print("regenerating with the same seed reproduces the workload byte for byte")

# Every generated query passes the validators: correct by construction.
clean = all(
    validate_relevance(validate_syntax(r.sql), catalog, subschema=subschema) == []
    for r in generate_mechanical(subschema, catalog, config, 200, seed=7)
)
print(f"200/200 generated queries pass syntax + relevance checks: {clean}")

# Clause probability shows up as corpus frequency.
biased = MechConfig(p_group_by=0.9)
share = sum(
    "GROUP BY" in r.sql for r in generate_mechanical(subschema, catalog, biased, 2_000, seed=11)
) / 2_000
print(f"with p_group_by = 0.9, observed GROUP BY share over 2000 queries: {share:.3f}")

# Seed examples for few-shot prompting, biased toward a clause.
records = generate_mechanical(subschema, catalog, config, 30, seed=7)
pool = [SeedExample.from_record(record) for record in records]
examples = select_seed_examples(pool, 3, bias="group_by", bias_weight=0.9, rng_seed=1)
print("\nthree seed examples biased toward GROUP BY:")
for example in examples:
    tags = ", ".join(sorted(example.features)) or "plain"
    print(f"  [{tags}] {example.sql[:100]}...")
