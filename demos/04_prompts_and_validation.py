#!/usr/bin/env python3
"""Prompt construction, SQL extraction, and the validator rules.

Shows the exact prompt text for the six canonical settings, how SQL is
pulled out of messy completions, and the relevance rules in action:
unresolved identifiers, label-column arithmetic, enumeration-literal
violations, and structural deduplication.
"""

from pathlib import Path

from sqlsynth.llmgen import CANONICAL_SETTINGS, PromptSetting, build_prompt, extract_sql
from sqlsynth.mechgen import MechConfig, SeedExample, generate_mechanical, select_seed_examples
from sqlsynth.records import make_record
from sqlsynth.schema import CsvDirSampler, infer_foreign_keys, ingest_ddl, profile_columns
from sqlsynth.sqltree import normalize_sql
from sqlsynth.subschema import build_join_graph, enumerate_subschemas
from sqlsynth.validation import ValidationReport, deduplicate, validate_relevance, validate_syntax

REPO = Path(__file__).resolve().parent.parent
catalog = infer_foreign_keys(ingest_ddl((REPO / "data" / "tpch_schema.sql").read_text(), "tpch"))
catalog = profile_columns(catalog, CsvDirSampler(REPO / "data" / "tpch_sample", catalog))
graph = build_join_graph(catalog)
subschema = next(s for s in enumerate_subschemas(graph) if s.tables == ("nation", "region"))

print("the six canonical prompt settings:", ", ".join(s.label for s in CANONICAL_SETTINGS))

pool = [
    SeedExample.from_record(r)
    for r in generate_mechanical(subschema, catalog, MechConfig(p_group_by=0.6), 12, seed=3)
]
examples = select_seed_examples(pool, 3, bias="group_by", rng_seed=5)
prompt = build_prompt(subschema, catalog, PromptSetting(3, "group_by"), examples)
print("\n----- 3-shot, group-by-biased prompt -----")
print(prompt)
print("------------------------------------------")

completions = [
    "Sure! Here is a query:\n```sql\nSELECT n_name, COUNT(*) FROM nation "
    "INNER JOIN region ON n_regionkey = r_regionkey GROUP BY n_name\n```",
    "You can simply run SELECT r_name FROM region; for a quick look.",
    "I cannot help with that.",
]
print("\nextraction from three raw completions:")
for completion in completions:
    print(f"  {completion[:60]!r}... -> {extract_sql(completion)}")

print("\nrelevance rules over a profiled catalog:")
cases = [
    "SELECT n_name FROM nation",
    "SELECT ghost FROM nation",
    "SELECT n_name FROM nation WHERE n_name = 'ATLANTIS'",  # not an enumerated value
    "SELECT l_returnflag + 1 FROM lineitem",  # fine: not a label column
    "SELECT o_orderdate FROM orders WHERE o_orderstatus IN ('F', 'Z')",
]
for sql in cases:
    codes = validate_relevance(validate_syntax(sql), catalog)
    print(f"  {sql:<62} -> {codes or 'accepted'}")

print("\ndeduplication folds case, whitespace, and literals:")
variants = [
    "SELECT n_name FROM nation WHERE n_nationkey = 1",
    "select   N_NAME from NATION where n_nationkey = 42",
    "SELECT n_name, n_regionkey FROM nation",
]
records = [make_record(sql, "mechanical", subschema.id) for sql in variants]
for record in records:
    record.validation = ValidationReport(normalized_form=normalize_sql(record.sql))
kept, dropped = deduplicate(records)
print(f"  {len(variants)} in -> {len(kept)} kept, {len(dropped)} duplicate(s)")
