#!/usr/bin/env python3
"""Execution labeling, runtime buckets, retention, and cost-model scoring.

Loads the bundled TPC-H sample into the embedded engine (capped rows per
table), times a mechanical corpus, buckets the runtimes, applies the
empty-result retention rule, and finally scores two prediction files with
the Q-error aggregates and the routing simulation.
"""

from collections import Counter
from pathlib import Path

from sqlsynth.evaluation import (
    compare_routing,
    format_summary_table,
    load_predictions_csv,
    route,
    summarize,
)
from sqlsynth.execution import (
    EngineSpec,
    SqliteSession,
    apply_retention,
    bucket_runtime,
    execute_batch,
    restrict_dataset,
)
from sqlsynth.mechgen import MechConfig, generate_mechanical
from sqlsynth.schema import CsvDirSampler, infer_foreign_keys, ingest_ddl, profile_columns
from sqlsynth.subschema import build_join_graph, enumerate_subschemas

REPO = Path(__file__).resolve().parent.parent
catalog = infer_foreign_keys(ingest_ddl((REPO / "data" / "tpch_schema.sql").read_text(), "tpch"))
catalog = profile_columns(catalog, CsvDirSampler(REPO / "data" / "tpch_sample", catalog))

session = SqliteSession(":memory:")
counts = restrict_dataset(catalog, REPO / "data" / "tpch_sample", session, 40_000)
print("loaded sample data (rows per table):", counts)

graph = build_join_graph(catalog)
subschemas = [s for s in enumerate_subschemas(graph) if len(s.tables) <= 3]
config = MechConfig(p_group_by=0.4, p_where=0.8)
records = []
for subschema in subschemas[:20]:
    records.extend(generate_mechanical(subschema, catalog, config, 2, seed=6))

engine = EngineSpec(engine_id="sqlite-demo", driver="sqlite")
labels = execute_batch(records, engine, timeout_ms=60_000, session=session)
session.close()
errors = sum(1 for label in labels if label.error)
print(f"\nexecuted {len(labels)} queries, {errors} engine errors")

buckets = Counter(bucket_runtime(label) for label in labels)
print(f"runtime buckets: {dict(buckets)} (desk-scale queries all land under 1s)")

kept, dropped = apply_retention(labels, min_empty_runtime_ms=10_000)
print(f"retention at the 10s empty-result rule: {len(kept)} kept, {len(dropped)} dropped")
print("  (an empty result that finished fast teaches a cost model nothing)")

print("\nscoring two prediction sources over the same measured runtimes:")
tight = load_predictions_csv(REPO / "data" / "demo" / "predictions_sdg.csv")
noisy = load_predictions_csv(REPO / "data" / "demo" / "predictions_mech.csv")
print(format_summary_table({"sdg": summarize(tight), "mech": summarize(noisy)}))

routed_tight = route(tight)
routed_noisy = route(noisy)
improvement = compare_routing(routed_noisy, routed_tight)
print(
    f"\nrouting with the tighter predictions: "
    f"{routed_noisy.total_routed_time / 60000:.1f} min -> "
    f"{routed_tight.total_routed_time / 60000:.1f} min "
    f"({improvement:+.1%}; oracle floor {routed_tight.oracle_time / 60000:.1f} min)"
)
