"""Command-line interface: one thin subcommand per pipeline stage.

``run`` drives the whole pipeline from a TOML config. Each per-stage command
takes the same config through ``--config``, plus its input and output paths,
and calls the function ``run`` calls for that stage:

==============  ==============================================================
``preprocess``  :func:`~sqlsynth.pipeline.build_catalog`
``subschemas``  :func:`~sqlsynth.pipeline.build_subschemas`
``gen-mech``    :func:`~sqlsynth.pipeline.generate_batch`, batch 0, no backend
``gen-llm``     :func:`~sqlsynth.pipeline.generate_batch`, batch 0, seeds from ``--pool``
``validate``    :func:`~sqlsynth.pipeline.validate_batch`
``coverage``    :func:`~sqlsynth.pipeline.coverage_reports` and
                :func:`~sqlsynth.pipeline.write_coverage`
``execute``     :func:`~sqlsynth.execution.label_corpus`, on every configured engine
==============  ==============================================================

So the chain ``preprocess`` → ``subschemas`` → ``gen-mech`` → ``gen-llm`` →
``validate`` → ``coverage`` → ``execute`` writes what ``run`` writes for a
config with ``loop_limit = 0``, runtimes apart; neither generation command
validates what it writes. ``execute`` writes the runtime labels, one row per
query and engine, and the part files of a shared dataset load beside them.
``evaluate`` and ``report`` read a finished run's files: ``report`` finds
each label's prompt setting in the kept records by query id.

Exit codes: 0 success, 1 stage-fatal error, 2 configuration/usage error.
``--json-errors`` switches error reporting to a machine-readable JSON line
on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import closing
from pathlib import Path

from . import __version__, pipeline
from .config import ConfigError, load_config
from .coverage import write_csv
from .errors import DataFileError, SqlsynthError
from .evaluation import (
    compare_routing,
    format_summary_table,
    load_predictions_csv,
    route,
    summarize,
)
from .execution import label_corpus, load_labels, runtime_bucket_rows, save_labels
from .mechgen import SeedExample
from .records import load_records, save_records
from .schema import load_catalog, save_catalog
from .subschema import load_subschemas, save_subschemas
from .util import SCHEMA_VERSION, dump_json


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

    def stage(name, summary, func):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="pipeline config, as for run")
        p.set_defaults(func=func)
        return p

    p = stage("preprocess", "ingest the config's DDL into a catalog JSON", cmd_preprocess)
    p.add_argument("--out", required=True, help="catalog JSON output path")

    p = stage("subschemas", "enumerate connected table subsets", cmd_subschemas)
    p.add_argument("--catalog", required=True)
    p.add_argument("--out", required=True)

    p = stage("gen-mech", "mechanically generate queries (batch 0)", cmd_gen_mech)
    p.add_argument("--catalog", required=True)
    p.add_argument("--subschemas", required=True)
    p.add_argument("--out", required=True)

    p = stage("gen-llm", "prompt the completion backend for queries (batch 0)", cmd_gen_llm)
    p.add_argument("--catalog", required=True)
    p.add_argument("--subschemas", required=True)
    p.add_argument("--pool", required=True, help="mechanical records JSONL for seed examples")
    p.add_argument("--out", required=True)

    p = stage("validate", "syntax/relevance checks plus deduplication", cmd_validate)
    p.add_argument("--catalog", required=True)
    p.add_argument("--subschemas", required=True, help="enforce each record's table set")
    p.add_argument(
        "--records", required=True, action="append",
        help="candidate records JSONL; repeat to validate several files in order",
    )
    p.add_argument(
        "--out", required=True,
        help="the records not kept (rejected or duplicates), with verdicts",
    )
    p.add_argument("--kept", required=True, help="the kept records, profiled")

    p = stage("coverage", "aggregate coverage of a kept corpus", cmd_coverage)
    p.add_argument("--catalog", required=True)
    p.add_argument("--records", required=True, help="kept records JSONL, profiled")
    p.add_argument(
        "--out", required=True, help="coverage JSON; the facet/clause CSVs go next to it"
    )

    p = stage("execute", "run queries on the configured engines and label runtimes",
              cmd_execute)
    p.add_argument("--catalog", required=True)
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True, help="runtime labels JSONL")

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

    p = sub.add_parser("report", help="emit the runtime-bucket table of a labeled run")
    p.add_argument("--kept", required=True, help="kept records JSONL from a run")
    p.add_argument("--labels", required=True, help="runtime labels JSONL of those records")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)

    return parser


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def cmd_preprocess(args) -> int:
    catalog = pipeline.build_catalog(load_config(args.config))
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
    subs = pipeline.build_subschemas(load_config(args.config), catalog)
    save_subschemas(subs, args.out)
    print(f"{len(subs)} subschemas over {len(catalog.tables)} tables -> {args.out}")
    return 0


def cmd_gen_mech(args) -> int:
    config = load_config(args.config)
    subs = load_subschemas(args.subschemas)
    accounting = pipeline.BatchAccounting(batch=0)
    records = _batch_zero(config, load_catalog(args.catalog), subs, {}, None, accounting)
    save_records(records, args.out)
    print(f"{len(records)} mechanical queries over {len(subs)} subschemas -> {args.out}")
    return 0


def cmd_gen_llm(args) -> int:
    config = load_config(args.config)
    if not config.llm.enabled:
        raise ConfigError("gen-llm needs llm.enabled = true in the config")
    pools: dict[str, list[SeedExample]] = {}
    for record in load_records(args.pool):
        pools.setdefault(record.subschema_id, []).append(SeedExample.from_record(record))
    config.mech_per_subschema = 0  # the records of --pool stand in for the batch's
    accounting = pipeline.BatchAccounting(batch=0)
    with closing(pipeline.make_backend(config)) as backend:
        records = _batch_zero(
            config, load_catalog(args.catalog), load_subschemas(args.subschemas), pools,
            backend, accounting,
        )
    save_records(records, args.out)
    print(
        f"{len(records)} candidates from {accounting.llm_calls} backend calls "
        f"({accounting.llm_failures} failed) -> {args.out}"
    )
    return 0


def _batch_zero(config, catalog, subschemas, pools, backend, accounting) -> list:
    """A run's batch 0, as :func:`~sqlsynth.pipeline.generate_batch` makes
    it with no directives, not validated."""
    return [record for chunk in pipeline.generate_batch(
        config, catalog, subschemas, pools, pipeline.RegenDirectives(), backend, 0,
        accounting, pipeline.InlineAnalysis(),
    ) for record in chunk]


def cmd_validate(args) -> int:
    if Path(args.out).resolve() == Path(args.kept).resolve():
        raise ConfigError(f"--out and --kept are the same file: {args.out}")
    config = load_config(args.config)
    subschema_by_id = {s.id: s for s in load_subschemas(args.subschemas)}
    records = [record for path in args.records for record in load_records(path)]
    accounting = pipeline.validate_batch(
        config, load_catalog(args.catalog), subschema_by_id, records, (args.out, args.kept)
    )
    print(
        f"{len(records)} records: {accounting.kept} kept -> {args.kept}, "
        f"{accounting.rejected} rejected and {accounting.dedup_dropped} duplicates -> {args.out}"
    )
    return 0


def cmd_coverage(args) -> int:
    config = load_config(args.config)
    kept = load_records(args.records)
    missing = sum(1 for record in kept if record.profile is None)
    if missing:
        raise DataFileError(
            f"{args.records}: {missing} record(s) carry no profile; "
            "pass the kept records that validate or run wrote"
        )
    reports = pipeline.coverage_reports(config, load_catalog(args.catalog), kept)
    pipeline.write_coverage(reports, args.out)
    gaps = len(reports[-1].gap_list) if reports else 0
    print(f"coverage over {len(kept)} queries, {gaps} gaps -> {args.out}")
    return 0


def cmd_execute(args) -> int:
    config = load_config(args.config)
    if not config.execution.enabled:
        raise ConfigError("execute needs execution.enabled = true in the config")
    records = load_records(args.records)
    catalog = load_catalog(args.catalog)
    labels, counts = label_corpus(config.execution, catalog, records, Path(args.out).parent)
    save_labels(labels, args.out)
    engines = ", ".join(engine.engine_id for engine in config.execution.engines)
    print(
        f"{counts['executed']} executed on {engines}: {counts['labels_kept']} labels kept, "
        f"{counts['labels_dropped']} dropped -> {args.out}"
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
        "summary": summary,
        "routing": routing,
    }
    if args.baseline:
        base_matrix = _load_predictions(args.baseline)
        summaries[Path(args.baseline).stem] = summarize(base_matrix)
        base_routing = route(base_matrix)
        improvement = compare_routing(base_routing, routing)
        payload["baseline_routing"] = base_routing
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
    if args.out:
        config.out_dir = args.out
    manifest = pipeline.run_pipeline(config, resume=args.resume)
    counts = manifest["counts"]
    print(
        f"run {manifest['name']}: {counts['generated']} generated, "
        f"{counts['kept']} kept, {counts['rejected']} rejected, "
        f"{counts['dedup_dropped']} duplicates over {counts['batches']} batch(es) "
        f"-> {config.out_dir}/manifest.json"
    )
    return 0


def cmd_report(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    settings = {record.id: record.setting_label for record in load_records(args.kept)}
    labels = load_labels(args.labels)
    # line 1 is the header, and a written file holds no blank line
    for lineno, label in enumerate(labels, start=2):
        if label.query_id not in settings:
            raise DataFileError(
                f"{args.labels}, line {lineno}: query_id {label.query_id!r} is not in {args.kept}"
            )
    rows = runtime_bucket_rows(labels, settings)
    if rows:
        write_csv(rows, out_dir / "runtime_buckets.csv")
        print(f"wrote runtime_buckets.csv -> {out_dir}")
    else:
        print(f"no labels in {args.labels}; wrote nothing")
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
