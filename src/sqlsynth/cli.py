"""Command-line interface: one thin subcommand per pipeline stage.

Exit codes: 0 success, 1 stage-fatal error, 2 configuration/usage error.
``--json-errors`` switches error reporting to a machine-readable JSON line
on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .config import ConfigError, load_config
from .coverage import (
    CoverageTargets,
    aggregate_coverage,
    clause_presence_rows,
    facet_stats_rows,
    profile_query,
    write_csv,
)
from .errors import SqlsynthError
from .evaluation import (
    compare_routing,
    format_summary_table,
    load_predictions_csv,
    route,
    summarize,
)
from .execution import (
    EngineSpec,
    SqliteSession,
    apply_retention,
    execute_batch,
    restrict_dataset,
    runtime_bucket_rows,
)
from .llmgen import prompt_hash
from .mechgen import MechConfig, generate_mechanical, select_seed_examples
from .pipeline import make_backend, run_pipeline, validate_record
from .records import ORIGIN_LLM, load_records, make_record, save_records
from .schema import (
    CsvDirSampler,
    derive_column_prefixes,
    infer_foreign_keys,
    ingest_ddl,
    load_catalog,
    profile_columns,
    save_catalog,
)
from .subschema import build_join_graph, enumerate_subschemas, load_subschemas, save_subschemas
from .util import SCHEMA_VERSION, dump_json
from .validation import VERDICT_ACCEPTED, deduplicate


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqlsynth",
        description="Synthetic SQL workload generation and cost-model evaluation",
    )
    parser.add_argument("--version", action="version", version=f"sqlsynth {__version__}")
    parser.add_argument(
        "--json-errors", action="store_true", help="report errors as JSON on stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="ingest DDL into a catalog JSON")
    p.add_argument("--ddl", required=True, help="path to CREATE TABLE script")
    p.add_argument("--out", required=True, help="catalog JSON output path")
    p.add_argument("--name", default="schema")
    p.add_argument("--no-infer-fks", action="store_true", help="skip foreign-key inference")
    p.add_argument("--sample-dir", help="directory of .csv/.tbl files for column profiling")
    p.add_argument("--sample-cap", type=int, default=10_000)
    p.add_argument("--enum-threshold", type=int, default=20)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("subschemas", help="enumerate connected table subsets")
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-tables", type=int, default=1)
    p.add_argument("--max-tables", type=int)
    p.set_defaults(func=cmd_subschemas)

    p = sub.add_parser("gen-mech", help="mechanically generate queries")
    p.add_argument("--catalog", required=True)
    p.add_argument("--subschemas", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--per-subschema", type=int, default=2)
    p.add_argument("--p-group-by", type=float, default=0.3)
    p.add_argument("--p-order-by", type=float, default=0.4)
    p.add_argument("--p-having", type=float, default=0.25)
    p.add_argument("--p-where", type=float, default=0.6)
    p.set_defaults(func=cmd_gen_mech)

    p = sub.add_parser("gen-llm", help="prompt a completion backend for queries")
    p.add_argument("--config", required=True, help="pipeline config with the [llm] section")
    p.add_argument("--catalog", required=True)
    p.add_argument("--subschemas", required=True)
    p.add_argument("--pool", required=True, help="mechanical records JSONL for seed examples")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_llm)

    p = sub.add_parser("validate", help="syntax/relevance checks plus deduplication")
    p.add_argument("--catalog", required=True)
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True, help="all records with verdicts")
    p.add_argument("--kept", help="kept-only JSONL output")
    p.add_argument("--subschemas", help="enforce each record's subschema table set")
    p.add_argument("--require-exact-tables", action="store_true")
    p.add_argument("--no-literal-placeholders", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("coverage", help="profile records and aggregate coverage")
    p.add_argument("--catalog", required=True)
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True, help="coverage JSON output")
    p.add_argument("--csv-dir", help="also write facet/clause CSVs here")
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("execute", help="run queries on an engine and label runtimes")
    p.add_argument("--catalog", required=True)
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True, help="labeled records JSONL")
    p.add_argument("--data-dir", required=True, help=".tbl/.csv files to load")
    p.add_argument("--engine-id", default="sqlite-local")
    p.add_argument("--database", default=":memory:", help="sqlite database path")
    p.add_argument("--timeout-ms", type=int, default=600_000)
    p.add_argument("--max-rows", type=int, default=40_000)
    p.add_argument("--min-empty-runtime-ms", type=int, default=10_000)
    p.set_defaults(func=cmd_execute)

    p = sub.add_parser("evaluate", help="Q-error summary and routing from predictions")
    p.add_argument("--predictions", required=True, help="CSV: query_id,engine_id,predicted_ms,true_ms")
    p.add_argument("--baseline", help="second predictions CSV to compare routing against")
    p.add_argument("--out", help="write the summary JSON here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--seed", type=int, help="override [pipeline].seed")
    p.add_argument("--out", help="override [pipeline].out_dir")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="emit coverage and runtime-bucket tables")
    p.add_argument("--coverage", help="coverage JSON from a run")
    p.add_argument("--labeled", help="labeled records JSONL from a run")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)

    return parser


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def cmd_preprocess(args) -> int:
    catalog = ingest_ddl(Path(args.ddl).read_text(encoding="utf-8"), name=args.name)
    if not args.no_infer_fks:
        catalog = infer_foreign_keys(catalog, derive_column_prefixes(catalog))
    if args.sample_dir:
        catalog = profile_columns(
            catalog,
            CsvDirSampler(args.sample_dir, catalog),
            sample_cap=args.sample_cap,
            enum_threshold=args.enum_threshold,
        )
    save_catalog(catalog, args.out)
    declared = sum(1 for fk in catalog.fk_edges if fk.provenance == "declared")
    inferred = len(catalog.fk_edges) - declared
    print(
        f"catalog {catalog.name}: {len(catalog.tables)} tables, "
        f"{declared} declared + {inferred} inferred foreign keys -> {args.out}"
    )
    return 0


def cmd_subschemas(args) -> int:
    catalog = load_catalog(args.catalog)
    graph = build_join_graph(catalog)
    subs = enumerate_subschemas(
        graph, max_tables=args.max_tables, min_tables=args.min_tables
    )
    save_subschemas(subs, args.out)
    print(f"{len(subs)} subschemas over {len(graph.nodes)} tables -> {args.out}")
    return 0


def cmd_gen_mech(args) -> int:
    catalog = load_catalog(args.catalog)
    subs = load_subschemas(args.subschemas)
    config = MechConfig(
        seed=args.seed,
        p_group_by=args.p_group_by,
        p_order_by=args.p_order_by,
        p_having=args.p_having,
        p_where=args.p_where,
    )
    records = []
    for subschema in subs:
        records.extend(generate_mechanical(subschema, catalog, config, args.per_subschema))
    save_records(records, args.out)
    print(f"{len(records)} mechanical queries over {len(subs)} subschemas -> {args.out}")
    return 0


def cmd_gen_llm(args) -> int:
    from .llmgen import build_prompt, extract_sql, generate_llm
    from .util import derive_seed

    config = load_config(args.config)
    if not config.llm.enabled:
        raise ConfigError("gen-llm needs llm.enabled = true in the config")
    backend = make_backend(config)
    catalog = load_catalog(args.catalog)
    subs = load_subschemas(args.subschemas)
    pool_records = load_records(args.pool)
    pools: dict[str, list] = {}
    for record in pool_records:
        pools.setdefault(record.subschema_id, []).append(record)

    out_records = []
    calls = failures = 0
    for subschema in subs:
        pool = pools.get(subschema.id, [])
        for setting in config.llm.settings:
            if len(pool) < setting.shots:
                continue
            examples = select_seed_examples(
                pool,
                setting.shots,
                bias=None if setting.bias == "none" else setting.bias,
                rng_seed=derive_seed(args.seed, "examples", subschema.id, setting.label),
            )
            prompt = build_prompt(subschema, catalog, setting, examples)
            calls += 1
            try:
                completions = generate_llm(prompt, backend, config.llm.params)
            except SqlsynthError:
                failures += 1
                continue
            for completion in completions:
                for sql in extract_sql(completion):
                    out_records.append(
                        make_record(
                            sql,
                            ORIGIN_LLM,
                            subschema.id,
                            prompt_setting=setting.to_dict(),
                            prompt_hash=prompt_hash(prompt),
                            model_name=config.llm.model,
                            generation_params=config.llm.params.to_dict(),
                        )
                    )
    save_records(out_records, args.out)
    print(
        f"{len(out_records)} candidates from {calls} backend calls "
        f"({failures} failed) -> {args.out}"
    )
    return 0


def cmd_validate(args) -> int:
    catalog = load_catalog(args.catalog)
    records = load_records(args.records)
    subschema_by_id = {}
    if args.subschemas:
        subschema_by_id = {s.id: s for s in load_subschemas(args.subschemas)}
    accepted = []
    for record in records:
        record.validation, _ = validate_record(
            record, catalog, subschema_by_id.get(record.subschema_id), args.require_exact_tables
        )
        if record.validation.verdict == VERDICT_ACCEPTED:
            accepted.append(record)
    kept, dropped = deduplicate(
        accepted, literal_placeholders=not args.no_literal_placeholders
    )
    save_records(records, args.out)
    if args.kept:
        save_records(kept, args.kept)
    print(
        f"{len(records)} records: {len(kept)} kept, {len(records) - len(accepted)} rejected, "
        f"{len(dropped)} duplicates -> {args.out}"
    )
    return 0


def cmd_coverage(args) -> int:
    catalog = load_catalog(args.catalog)
    records = load_records(args.records)
    by_setting: dict[str, list] = {}
    for record in records:
        profile = profile_query(record.sql, catalog)
        by_setting.setdefault(record.setting_label, []).append(profile)
    reports = [
        aggregate_coverage(profiles, label, catalog, CoverageTargets())
        for label, profiles in sorted(by_setting.items())
    ]
    all_profiles = [p for profiles in by_setting.values() for p in profiles]
    reports.append(aggregate_coverage(all_profiles, "all", catalog, CoverageTargets()))
    dump_json(
        {
            "schema_version": SCHEMA_VERSION,
            "kind": "coverage",
            "reports": [r.to_dict() for r in reports],
        },
        args.out,
    )
    if args.csv_dir:
        csv_dir = Path(args.csv_dir)
        csv_dir.mkdir(parents=True, exist_ok=True)
        write_csv(facet_stats_rows(reports), csv_dir / "coverage_facets.csv")
        write_csv(clause_presence_rows(reports), csv_dir / "coverage_clauses.csv")
    gaps = sum(len(r.gap_list) for r in reports if r.setting == "all")
    print(f"coverage over {len(records)} queries, {gaps} gaps -> {args.out}")
    return 0


def cmd_execute(args) -> int:
    catalog = load_catalog(args.catalog)
    records = load_records(args.records)
    engine = EngineSpec(
        engine_id=args.engine_id, driver="sqlite", options={"database": args.database}
    )
    session = SqliteSession(args.database)
    try:
        restrict_dataset(catalog, args.data_dir, session, args.max_rows)
        labels = execute_batch(records, engine, timeout_ms=args.timeout_ms, session=session)
    finally:
        session.close()
    kept, dropped = apply_retention(labels, args.min_empty_runtime_ms)
    by_query = {label.query_id: label for label in kept}
    labeled = []
    for record in records:
        label = by_query.get(record.id)
        if label is not None:
            record.labels[engine.engine_id] = label.to_dict()
            labeled.append(record)
    save_records(labeled, args.out)
    errors = sum(1 for label in labels if label.error)
    timeouts = sum(1 for label in labels if label.timed_out)
    print(
        f"{len(labels)} executed on {engine.engine_id}: {len(kept)} labels kept, "
        f"{len(dropped)} dropped ({errors} errors, {timeouts} timeouts) -> {args.out}"
    )
    return 0


def _load_predictions(path: str):
    if str(path).endswith((".jsonl", ".ndjson")):
        from .evaluation import load_predictions_jsonl

        return load_predictions_jsonl(path)
    return load_predictions_csv(path)


def cmd_evaluate(args) -> int:
    matrix = _load_predictions(args.predictions)
    summary = summarize(matrix)
    summaries = {Path(args.predictions).stem: summary}
    routing = route(matrix)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "evaluation",
        "summary": summary.to_dict(),
        "routing": routing.to_dict(),
    }
    if args.baseline:
        base_matrix = _load_predictions(args.baseline)
        summaries[Path(args.baseline).stem] = summarize(base_matrix)
        base_routing = route(base_matrix)
        improvement = compare_routing(base_routing, routing)
        payload["baseline_routing"] = base_routing.to_dict()
        payload["routing_improvement"] = improvement
    print(format_summary_table(summaries))
    print(
        f"\nrouted total {routing.total_routed_time:.0f} ms, "
        f"oracle {routing.oracle_time:.0f} ms, regret {routing.regret:.0f} ms"
    )
    if args.baseline:
        print(f"routing improvement over baseline: {payload['routing_improvement']:+.1%}")
    if args.out:
        dump_json(payload, args.out)
    return 0


def cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
        config.mechanical.seed = args.seed
    if args.out:
        config.out_dir = args.out
    manifest = run_pipeline(config, resume=args.resume)
    counts = manifest["counts"]
    print(
        f"run {manifest['name']}: {counts['generated']} generated, "
        f"{counts['kept']} kept, {counts['rejected']} rejected, "
        f"{counts['dedup_dropped']} duplicates over {counts['batches']} batch(es) "
        f"-> {config.out_dir}/manifest.json"
    )
    return 0


def cmd_report(args) -> int:
    if not args.coverage and not args.labeled:
        raise ConfigError("report needs --coverage and/or --labeled")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    wrote = []
    if args.coverage:
        from .util import load_json

        data = load_json(args.coverage)
        reports = data["reports"]
        facet_rows = [
            {
                "setting": r["setting"],
                "facet": facet,
                "mean": f"{r['facets'][facet]['mean']:.6g}",
                "std": f"{r['facets'][facet]['std']:.6g}",
                "min": f"{r['facets'][facet]['min']:g}",
                "max": f"{r['facets'][facet]['max']:g}",
            }
            for r in reports
            for facet in ("joins", "clauses", "operators", "functions")
        ]
        write_csv(facet_rows, out_dir / "facets.csv")
        clause_rows = [
            {
                "setting": r["setting"],
                "clause": clause,
                "presence": f"{r['clause_presence_freq'][clause]:.6g}",
            }
            for r in reports
            for clause in ("group_by", "order_by", "having")
        ]
        write_csv(clause_rows, out_dir / "clause_presence.csv")
        wrote += ["facets.csv", "clause_presence.csv"]
    if args.labeled:
        records = load_records(args.labeled)
        rows = runtime_bucket_rows(records)
        if rows:
            write_csv(rows, out_dir / "runtime_buckets.csv")
            wrote.append("runtime_buckets.csv")
    print(f"wrote {', '.join(wrote)} -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _report_error(args, "config", exc)
        return 2
    except SqlsynthError as exc:
        _report_error(args, type(exc).__name__, exc)
        return 1
    except OSError as exc:
        _report_error(args, "io", exc)
        return 1


def _report_error(args, kind: str, exc: Exception) -> None:
    if getattr(args, "json_errors", False):
        print(json.dumps({"error": {"kind": kind, "message": str(exc)}}), file=sys.stderr)
    else:
        print(f"error ({kind}): {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
